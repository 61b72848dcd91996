#include "qrn/classification.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "exec/parallel.h"
#include "qrn/incident_type.h"

namespace qrn {

namespace {

/// The non-ego counterparty of an ego-involved incident.
ActorType counterparty(const Incident& incident) {
    return incident.first == ActorType::EgoVehicle ? incident.second : incident.first;
}

bool is_road_user(ActorType type) {
    return type == ActorType::Car || type == ActorType::Truck || type == ActorType::Vru;
}

}  // namespace

ClassificationNode::ClassificationNode(std::string name, IncidentPredicate accepts)
    : name_(std::move(name)), accepts_(std::move(accepts)) {
    if (name_.empty()) {
        throw std::invalid_argument("ClassificationNode: name must be non-empty");
    }
    if (!accepts_) {
        throw std::invalid_argument("ClassificationNode: predicate must be callable");
    }
}

ClassificationNode& ClassificationNode::add_child(std::string name,
                                                  IncidentPredicate accepts) {
    children_.push_back(
        std::make_unique<ClassificationNode>(std::move(name), std::move(accepts)));
    return *children_.back();
}

std::string ClassificationPath::joined(const std::string& sep) const {
    std::string out;
    for (std::size_t i = 0; i < path.size(); ++i) {
        if (i > 0) out += sep;
        out += path[i];
    }
    return out;
}

ClassificationTree::ClassificationTree(std::unique_ptr<ClassificationNode> root)
    : root_(std::move(root)) {
    if (!root_) throw std::invalid_argument("ClassificationTree: root must be non-null");
}

ClassificationPath ClassificationTree::classify(const Incident& incident) const {
    ClassificationPath out;
    route(incident, &out.path);
    return out;
}

const ClassificationNode& ClassificationTree::classify_leaf(
    const Incident& incident) const {
    return route(incident, nullptr);
}

const ClassificationNode& ClassificationTree::route(
    const Incident& incident, std::vector<std::string>* path) const {
    validate(incident);
    if (!root_->accepts(incident)) {
        throw std::logic_error("ClassificationTree: root rejected incident " +
                               describe(incident));
    }
    const ClassificationNode* node = root_.get();
    while (!node->is_leaf()) {
        const ClassificationNode* chosen = nullptr;
        for (const auto& child : node->children()) {
            if (!child->accepts(incident)) continue;
            if (chosen != nullptr) {
                throw std::logic_error("ClassificationTree: overlap at '" + node->name() +
                                       "' between '" + chosen->name() + "' and '" +
                                       child->name() + "' for " + describe(incident));
            }
            chosen = child.get();
        }
        if (chosen == nullptr) {
            throw std::logic_error("ClassificationTree: gap at '" + node->name() +
                                   "' for " + describe(incident));
        }
        if (path != nullptr) path->push_back(chosen->name());
        node = chosen;
    }
    return *node;
}

MeceReport ClassificationTree::certify_mece(
    std::size_t samples, const std::function<Incident(std::size_t)>& next_incident,
    std::size_t max_violations, unsigned jobs) const {
    // Each chunk collects up to max_violations defects over its own sample
    // range; concatenating the partials in chunk order and truncating
    // yields the first max_violations defects in sample order - the same
    // list the serial scan produces, independent of the chunking.
    auto partials = exec::parallel_chunks<std::vector<MeceViolation>>(
        jobs, samples, [&](const exec::ChunkRange& chunk) {
            std::vector<MeceViolation> violations;
            for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
                const Incident incident = next_incident(i);
                validate(incident);
                // Walk the tree counting accepting children at each level
                // instead of calling classify(), so one sample can surface
                // multiple defects.
                const ClassificationNode* node = root_.get();
                if (!node->accepts(incident)) {
                    violations.push_back({node->name(), 0, describe(incident)});
                }
                while (!node->is_leaf()) {
                    const ClassificationNode* chosen = nullptr;
                    std::size_t accepting = 0;
                    for (const auto& child : node->children()) {
                        if (child->accepts(incident)) {
                            ++accepting;
                            chosen = child.get();
                        }
                    }
                    if (accepting != 1) {
                        violations.push_back({node->name(), accepting, describe(incident)});
                        break;
                    }
                    node = chosen;
                }
                if (violations.size() >= max_violations) break;
            }
            return violations;
        });
    MeceReport report;
    report.samples = samples;
    for (auto& part : partials) {
        for (auto& violation : part) {
            if (report.violations.size() >= max_violations) break;
            report.violations.push_back(std::move(violation));
        }
    }
    return report;
}

std::vector<ClassificationPath> ClassificationTree::leaves() const {
    std::vector<ClassificationPath> out;
    std::vector<std::string> stack;
    const std::function<void(const ClassificationNode&)> visit =
        [&](const ClassificationNode& node) {
            stack.push_back(node.name());
            if (node.is_leaf()) {
                ClassificationPath p;
                p.path.assign(stack.begin() + 1, stack.end());  // skip root
                if (p.path.empty()) p.path.push_back(node.name());
                out.push_back(std::move(p));
            } else {
                for (const auto& child : node.children()) visit(*child);
            }
            stack.pop_back();
        };
    visit(*root_);
    return out;
}

std::vector<const ClassificationNode*> ClassificationTree::leaf_nodes() const {
    std::vector<const ClassificationNode*> out;
    const std::function<void(const ClassificationNode&)> visit =
        [&](const ClassificationNode& node) {
            if (node.is_leaf()) {
                out.push_back(&node);
            } else {
                for (const auto& child : node.children()) visit(*child);
            }
        };
    visit(*root_);
    return out;
}

std::string ClassificationTree::render() const {
    std::ostringstream os;
    const std::function<void(const ClassificationNode&, int)> visit =
        [&](const ClassificationNode& node, int depth) {
            os << std::string(static_cast<std::size_t>(depth) * 2, ' ') << node.name()
               << '\n';
            for (const auto& child : node.children()) visit(*child, depth + 1);
        };
    visit(*root_, 0);
    return os.str();
}

std::vector<std::string> TypeCoverageReport::gaps(double min_fraction) const {
    std::vector<std::string> out;
    for (const auto& leaf : leaves) {
        if (leaf.fraction() < min_fraction) out.push_back(leaf.leaf);
    }
    return out;
}

TypeCoverageReport check_type_coverage(
    const ClassificationTree& tree, const IncidentTypeSet& types, std::size_t samples,
    const std::function<Incident(std::size_t)>& next_incident, unsigned jobs) {
    if (samples == 0) {
        throw std::invalid_argument("check_type_coverage: samples must be >= 1");
    }
    // Per-chunk tallies merge by summing counters, which is independent of
    // the chunking; the map keeps leaves sorted by name either way.
    using LeafMap = std::map<std::string, LeafCoverage>;
    auto partials = exec::parallel_chunks<LeafMap>(
        jobs, samples, [&](const exec::ChunkRange& chunk) {
            LeafMap local;
            for (std::size_t n = chunk.begin; n < chunk.end; ++n) {
                const Incident incident = next_incident(n);
                const auto leaf = tree.classify(incident).leaf();
                auto& entry = local[leaf];
                entry.leaf = leaf;
                ++entry.sampled;
                if (types.classify(incident).has_value()) ++entry.covered;
            }
            return local;
        });
    std::map<std::string, LeafCoverage> by_leaf;
    for (auto& part : partials) {
        for (auto& [name, coverage] : part) {
            auto& entry = by_leaf[name];
            entry.leaf = name;
            entry.sampled += coverage.sampled;
            entry.covered += coverage.covered;
        }
    }
    TypeCoverageReport report;
    report.samples = samples;
    report.leaves.reserve(by_leaf.size());
    for (auto& [name, coverage] : by_leaf) report.leaves.push_back(std::move(coverage));
    return report;
}

ClassificationTree ClassificationTree::paper_example() {
    auto root = std::make_unique<ClassificationNode>(
        "Incident classification", [](const Incident&) { return true; });

    // ----- Top half of Fig. 4: ego vehicle involved in an incident.
    auto& ego = root->add_child("Ego vehicle involved in an incident",
                                [](const Incident& i) { return i.involves_ego(); });

    auto& ego_ru = ego.add_child("Ego<->Road User", [](const Incident& i) {
        return is_road_user(counterparty(i));
    });
    ego_ru.add_child("Ego<->Car",
                     [](const Incident& i) { return counterparty(i) == ActorType::Car; });
    ego_ru.add_child("Ego<->Truck", [](const Incident& i) {
        return counterparty(i) == ActorType::Truck;
    });
    ego_ru.add_child("Ego<->VRU",
                     [](const Incident& i) { return counterparty(i) == ActorType::Vru; });

    auto& ego_nh = ego.add_child("Ego<->Non-human", [](const Incident& i) {
        return !is_road_user(counterparty(i));
    });
    ego_nh.add_child("Ego<->Elk", [](const Incident& i) {
        return counterparty(i) == ActorType::Animal;
    });
    ego_nh.add_child("Ego<->Stat. Obj.", [](const Incident& i) {
        return counterparty(i) == ActorType::StaticObject;
    });
    ego_nh.add_child("Ego<->Other", [](const Incident& i) {
        return counterparty(i) == ActorType::OtherActor;
    });

    // ----- Bottom half of Fig. 4: ego a causing factor in an incident
    // involving other road users (induced incidents).
    auto& induced =
        root->add_child("Ego vehicle a causing factor in an incident involving "
                        "other road users",
                        [](const Incident& i) { return !i.involves_ego(); });

    const auto pair_is = [](ActorType a, ActorType b) {
        return [a, b](const Incident& i) {
            return (i.first == a && i.second == b) || (i.first == b && i.second == a);
        };
    };
    auto& car_ru = induced.add_child("Car<->Road User", [](const Incident& i) {
        return (i.first == ActorType::Car || i.second == ActorType::Car) &&
               is_road_user(i.first) && is_road_user(i.second);
    });
    car_ru.add_child("Car<->VRU", pair_is(ActorType::Car, ActorType::Vru));
    car_ru.add_child("Car<->Truck", pair_is(ActorType::Car, ActorType::Truck));
    car_ru.add_child("Car<->Car", pair_is(ActorType::Car, ActorType::Car));

    induced.add_child("Car<->Non-human", [](const Incident& i) {
        return (i.first == ActorType::Car || i.second == ActorType::Car) &&
               !(is_road_user(i.first) && is_road_user(i.second));
    });
    induced.add_child("Truck<->Road User", [](const Incident& i) {
        const bool has_car = i.first == ActorType::Car || i.second == ActorType::Car;
        const bool has_truck = i.first == ActorType::Truck || i.second == ActorType::Truck;
        return has_truck && !has_car && is_road_user(i.first) && is_road_user(i.second);
    });
    induced.add_child("Other<->Other", [](const Incident& i) {
        const bool has_car = i.first == ActorType::Car || i.second == ActorType::Car;
        const bool has_truck = i.first == ActorType::Truck || i.second == ActorType::Truck;
        if (has_car) return false;
        if (has_truck) return !(is_road_user(i.first) && is_road_user(i.second));
        return true;
    });

    return ClassificationTree(std::move(root));
}

}  // namespace qrn
