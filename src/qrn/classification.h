// Incident classification trees and the MECE completeness argument.
//
// The QRN approach replaces "completeness of identified situations" with
// completeness of an incident classification: "we can guarantee
// completeness by making the classification scheme complete by definition,
// i.e. every theoretically possible incident belongs to one of the defined
// incident types" (Sec. III-B). This module provides:
//  - a predicate tree mirroring the paper's Fig. 4 example classification;
//  - classify(): route any incident to exactly one leaf;
//  - a machine-checked MECE certificate: for a sampled incident population,
//    every internal node must have exactly one accepting child (mutual
//    exclusivity + collective exhaustiveness at every level).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "qrn/incident.h"

namespace qrn {

/// Predicate over incidents used to route classification.
using IncidentPredicate = std::function<bool(const Incident&)>;

/// A node in the classification tree. Internal nodes partition their
/// incident subset among children; leaves are the classification buckets.
class ClassificationNode {
public:
    ClassificationNode(std::string name, IncidentPredicate accepts);

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] bool accepts(const Incident& incident) const { return accepts_(incident); }
    [[nodiscard]] bool is_leaf() const noexcept { return children_.empty(); }
    [[nodiscard]] const std::vector<std::unique_ptr<ClassificationNode>>& children()
        const noexcept {
        return children_;
    }

    /// Adds a child partition; returns a reference for chained building.
    ClassificationNode& add_child(std::string name, IncidentPredicate accepts);

private:
    std::string name_;
    IncidentPredicate accepts_;
    std::vector<std::unique_ptr<ClassificationNode>> children_;
};

/// Result of classifying one incident: the path of node names from the
/// root's child down to the accepting leaf.
struct ClassificationPath {
    std::vector<std::string> path;

    [[nodiscard]] const std::string& leaf() const { return path.back(); }
    [[nodiscard]] std::string joined(const std::string& sep = " / ") const;
};

/// One MECE violation discovered during certification.
struct MeceViolation {
    std::string node;          ///< Internal node where the violation occurred.
    std::size_t accepting_children = 0;  ///< 0 = gap, >= 2 = overlap.
    std::string incident;      ///< describe() of the offending incident.
};

/// Outcome of a MECE certification run.
struct MeceReport {
    std::size_t samples = 0;
    std::vector<MeceViolation> violations;  ///< Capped; empty means certified.

    [[nodiscard]] bool certified() const noexcept { return violations.empty(); }
};

/// A complete classification tree rooted at "any incident in scope".
class ClassificationTree {
public:
    /// Takes ownership of the root; the root must accept every incident
    /// that `validate(incident)` accepts.
    explicit ClassificationTree(std::unique_ptr<ClassificationNode> root);

    [[nodiscard]] const ClassificationNode& root() const noexcept { return *root_; }

    /// Routes the incident down the tree. Throws std::logic_error if at any
    /// level zero or more than one child accepts (a MECE defect), making
    /// classification failures loud rather than silently arbitrary.
    [[nodiscard]] ClassificationPath classify(const Incident& incident) const;

    /// The accepting leaf node for the incident: the same walk and the
    /// same MECE throws as classify(), but no path strings are built.
    /// Its position in leaf_nodes() is the incident's leaf ordinal.
    [[nodiscard]] const ClassificationNode& classify_leaf(const Incident& incident) const;

    /// Certifies the MECE property over a population of sampled incidents.
    /// `next_incident(i)` must return the i-th sample. At most
    /// `max_violations` defects are recorded (the first ones in sample
    /// order) before early exit.
    ///
    /// With jobs > 1 the samples are scanned in parallel chunks on the
    /// shared thread pool; `next_incident` must then be safe to call
    /// concurrently and pure in its index (derive any randomness via
    /// stats::Rng::stream(seed, i)). The report is bit-identical for every
    /// jobs value.
    [[nodiscard]] MeceReport certify_mece(
        std::size_t samples, const std::function<Incident(std::size_t)>& next_incident,
        std::size_t max_violations = 10, unsigned jobs = 1) const;

    /// All leaf paths (depth-first), for reporting the tree (Fig. 4).
    [[nodiscard]] std::vector<ClassificationPath> leaves() const;

    /// All leaf nodes in the same depth-first order as leaves().
    [[nodiscard]] std::vector<const ClassificationNode*> leaf_nodes() const;

    /// Renders the tree as indented text.
    [[nodiscard]] std::string render() const;

    /// The paper's Fig. 4 example classification, complete by construction:
    /// top half partitions ego-involved incidents by counterparty (road
    /// user: car/truck/VRU/other; non-human: elk(animal)/static
    /// object/other), bottom half partitions induced incidents (ego a
    /// causing factor) by actor pair with catch-all "Other<->Other".
    [[nodiscard]] static ClassificationTree paper_example();

private:
    /// The classify() walk; appends each chosen node's name to `path`
    /// when it is non-null.
    const ClassificationNode& route(const Incident& incident,
                                    std::vector<std::string>* path) const;

    std::unique_ptr<ClassificationNode> root_;
};

/// Coverage of one classification leaf by an incident-type catalog.
struct LeafCoverage {
    std::string leaf;
    std::size_t sampled = 0;  ///< Incidents routed to this leaf.
    std::size_t covered = 0;  ///< Of those, matched by >= 1 incident type.

    [[nodiscard]] double fraction() const noexcept {
        return sampled == 0
                   ? 0.0
                   : static_cast<double>(covered) / static_cast<double>(sampled);
    }
};

/// Result of a type-coverage check over the classification.
struct TypeCoverageReport {
    std::size_t samples = 0;
    std::vector<LeafCoverage> leaves;  ///< Only leaves with sampled > 0.

    /// Leaves whose covered fraction is below `min_fraction` - the gaps a
    /// real study must close with further incident types (or explicitly
    /// waive with rationale in the safety case).
    [[nodiscard]] std::vector<std::string> gaps(double min_fraction = 1.0) const;
};

class IncidentTypeSet;  // incident_type.h; full definition needed by users.

/// The completeness argument needs more than a MECE tree: every leaf's
/// incidents must also be constrained by some safety goal. This check
/// samples incidents, routes each through the tree, and records whether
/// any incident type matches it. Same concurrency contract as
/// certify_mece: with jobs > 1, `next_incident` must be thread-safe and
/// index-pure; per-leaf tallies are merged and are bit-identical for
/// every jobs value.
[[nodiscard]] TypeCoverageReport check_type_coverage(
    const ClassificationTree& tree, const IncidentTypeSet& types, std::size_t samples,
    const std::function<Incident(std::size_t)>& next_incident, unsigned jobs = 1);

}  // namespace qrn
