#include "sched/dag.h"

#include <algorithm>
#include <numeric>

namespace qrn::sched {

std::size_t Dag::add_node(std::string id) {
    if (built_) throw SchedError("Dag::add_node: graph is already built");
    if (id.empty()) throw SchedError("Dag::add_node: node id must not be empty");
    if (!index_.try_emplace(id, nodes_.size()).second) {
        throw SchedError("Dag::add_node: duplicate node id '" + id + "'");
    }
    nodes_.push_back(DagNode{std::move(id)});
    succs_.emplace_back();
    preds_.emplace_back();
    return nodes_.size() - 1;
}

void Dag::add_edge(std::size_t from, std::size_t to) {
    if (built_) throw SchedError("Dag::add_edge: graph is already built");
    if (from >= nodes_.size() || to >= nodes_.size()) {
        throw SchedError("Dag::add_edge: node index out of range (" +
                         std::to_string(from) + " -> " + std::to_string(to) +
                         " with " + std::to_string(nodes_.size()) + " nodes)");
    }
    if (from == to) {
        throw SchedError("Dag::add_edge: self-edge on '" + nodes_[from].id + "'");
    }
    // The campaign DAG's hub (generate fans out to every fleet) has a long
    // successor list, but each fleet's predecessor list is short.
    auto& out = succs_[from];
    auto& in = preds_[to];
    const bool duplicate = out.size() <= in.size()
                               ? std::find(out.begin(), out.end(), to) != out.end()
                               : std::find(in.begin(), in.end(), from) != in.end();
    if (duplicate) return;
    out.push_back(to);
    in.push_back(from);
    ++edges_;
}

std::optional<std::size_t> Dag::index_of(std::string_view id) const {
    const auto it = index_.find(std::string(id));
    if (it == index_.end()) return std::nullopt;
    return it->second;
}

void Dag::build() {
    if (built_) return;

    // Kahn's algorithm with topo_ as its own FIFO: the sources in index
    // order, then each node once its last predecessor is placed. One pass
    // gives the order and detects cycles.
    std::vector<std::size_t> indegree(nodes_.size());
    topo_.clear();
    topo_.reserve(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        indegree[i] = preds_[i].size();
        if (indegree[i] == 0) topo_.push_back(i);
    }
    for (std::size_t head = 0; head < topo_.size(); ++head) {
        for (const std::size_t succ : succs_[topo_[head]]) {
            if (--indegree[succ] == 0) topo_.push_back(succ);
        }
    }
    if (topo_.size() != nodes_.size()) {
        // Every unprocessed node sits on or behind a cycle; name the
        // smallest-id one so the diagnostic is stable.
        std::string worst;
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            if (indegree[i] == 0) continue;
            if (worst.empty() || nodes_[i].id < worst) worst = nodes_[i].id;
        }
        throw SchedError("Dag::build: dependency cycle through node '" + worst +
                         "'");
    }
    built_ = true;
}

void Dag::require_built(const char* what) const {
    if (!built_) {
        throw SchedError(std::string("Dag::") + what +
                         ": call build() before querying the frozen graph");
    }
}

const std::vector<std::size_t>& Dag::topo_order() const {
    require_built("topo_order");
    return topo_;
}

namespace {

/// Top-K offenders by degree, descending, ties broken by id so the
/// diagnostics are deterministic.
template <typename DegreeOf>
std::vector<DagMetrics::Offender> top_by_degree(const Dag& dag, std::size_t top_k,
                                                const DegreeOf& degree_of) {
    std::vector<std::size_t> order(dag.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    const std::size_t keep = std::min(top_k, order.size());
    std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(keep),
                      order.end(), [&](std::size_t a, std::size_t b) {
                          if (degree_of(a) != degree_of(b)) {
                              return degree_of(a) > degree_of(b);
                          }
                          return dag.node(a).id < dag.node(b).id;
                      });
    std::vector<DagMetrics::Offender> top;
    top.reserve(keep);
    for (std::size_t k = 0; k < keep; ++k) {
        top.push_back({dag.node(order[k]).id, degree_of(order[k])});
    }
    return top;
}

}  // namespace

DagMetrics compute_metrics(const Dag& dag, std::size_t top_k) {
    DagMetrics m;
    m.node_count = dag.size();
    m.edge_count = dag.edge_count();
    if (dag.size() == 0) return m;

    // Depth (node count on the longest path) in reverse topo order.
    const auto& topo = dag.topo_order();
    std::vector<std::size_t> depth(dag.size(), 1);
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        for (const std::size_t succ : dag.succs(*it)) {
            depth[*it] = std::max(depth[*it], depth[succ] + 1);
        }
        m.max_depth = std::max(m.max_depth, depth[*it]);
    }
    for (std::size_t i = 0; i < dag.size(); ++i) {
        m.fanout_peak = std::max(m.fanout_peak, dag.succs(i).size());
        m.fanin_peak = std::max(m.fanin_peak, dag.preds(i).size());
    }
    m.top_fanout = top_by_degree(
        dag, top_k, [&](std::size_t i) { return dag.succs(i).size(); });
    m.top_fanin = top_by_degree(
        dag, top_k, [&](std::size_t i) { return dag.preds(i).size(); });
    return m;
}

DagBudget DagBudget::campaign_default() {
    DagBudget b;
    b.node_count_hard = 100003;  // CLI --fleets cap (100000) + the spine.
    b.edge_count_hard = 200002;  // two edges per fleet node + the spine.
    b.max_depth_hard = 64;       // the campaign spine is 4 deep; 64 leaves
                                 // room for staged plans without letting a
                                 // degenerate chain through.
    b.node_count_soft = 10003;
    b.fanout_peak_soft = 10000;
    return b;
}

namespace {

void offender_lines(std::string& out, const char* label,
                    const std::vector<DagMetrics::Offender>& offenders) {
    if (offenders.empty()) return;
    out += "sched:   top ";
    out += label;
    out += ":";
    for (const auto& o : offenders) {
        out += " " + o.id + " (" + std::to_string(o.degree) + ")";
    }
    out += "\n";
}

}  // namespace

BudgetCheck check_budget(const DagMetrics& metrics, const DagBudget& budget) {
    BudgetCheck check;
    const auto hard = [&](const char* what, std::size_t value, std::size_t limit) {
        if (limit == 0 || value <= limit) return;
        check.passed = false;
        check.diagnostics += "sched: DAG over budget: " + std::string(what) +
                             " " + std::to_string(value) + " > hard limit " +
                             std::to_string(limit) + "\n";
    };
    const auto soft = [&](const char* what, std::size_t value, std::size_t limit) {
        if (limit == 0 || value <= limit) return;
        check.has_warnings = true;
        check.diagnostics += "sched: warning: " + std::string(what) + " " +
                             std::to_string(value) + " exceeds soft limit " +
                             std::to_string(limit) + "\n";
    };
    hard("node count", metrics.node_count, budget.node_count_hard);
    hard("edge count", metrics.edge_count, budget.edge_count_hard);
    hard("depth", metrics.max_depth, budget.max_depth_hard);
    soft("node count", metrics.node_count, budget.node_count_soft);
    soft("fan-out peak", metrics.fanout_peak, budget.fanout_peak_soft);
    if (!check.diagnostics.empty()) {
        offender_lines(check.diagnostics, "fan-out", metrics.top_fanout);
        offender_lines(check.diagnostics, "fan-in", metrics.top_fanin);
    }
    return check;
}

}  // namespace qrn::sched
