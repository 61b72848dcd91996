// Work-DAG invariants: deterministic topology, id lookup, cycle rejection,
// and the hard/soft budget gate every distributed campaign passes before a
// worker starts, pinned as unit properties.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sched/dag.h"

namespace {

using namespace qrn::sched;

/// The campaign spine with two fleet nodes:
/// generate -> {heavy, light} -> aggregate -> verify.
Dag diamond() {
    Dag dag;
    const auto generate = dag.add_node("generate");
    const auto heavy = dag.add_node("fleet-00000");
    const auto light = dag.add_node("fleet-00001");
    const auto aggregate = dag.add_node("aggregate");
    const auto verify = dag.add_node("verify");
    dag.add_edge(generate, heavy);
    dag.add_edge(generate, light);
    dag.add_edge(heavy, aggregate);
    dag.add_edge(light, aggregate);
    dag.add_edge(aggregate, verify);
    dag.build();
    return dag;
}

TEST(Dag, TopoOrderIsDeterministicAndRespectsEdges) {
    const Dag dag = diamond();
    const auto& topo = dag.topo_order();
    ASSERT_EQ(topo.size(), 5u);
    std::vector<std::size_t> position(topo.size());
    for (std::size_t at = 0; at < topo.size(); ++at) position[topo[at]] = at;
    for (std::size_t i = 0; i < dag.size(); ++i) {
        for (const std::size_t succ : dag.succs(i)) {
            EXPECT_LT(position[i], position[succ])
                << dag.node(i).id << " must precede " << dag.node(succ).id;
        }
    }
    // Kahn with the sources in index order and a FIFO ready list: the
    // order is a pure function of the graph, so two identical builds agree
    // exactly.
    const Dag again = diamond();
    EXPECT_EQ(topo, again.topo_order());
}

TEST(Dag, IndexOfFindsEveryNodeById) {
    const Dag dag = diamond();
    for (std::size_t i = 0; i < dag.size(); ++i) {
        EXPECT_EQ(dag.index_of(dag.node(i).id), i);
    }
    EXPECT_FALSE(dag.index_of("fleet-00002").has_value());
    EXPECT_FALSE(dag.index_of("").has_value());
}

TEST(Dag, RejectsCyclesNamingAStableNode) {
    Dag dag;
    const auto a = dag.add_node("a");
    const auto b = dag.add_node("b");
    const auto c = dag.add_node("c");
    dag.add_edge(a, b);
    dag.add_edge(b, c);
    dag.add_edge(c, a);
    try {
        dag.build();
        FAIL() << "cycle must be rejected";
    } catch (const SchedError& error) {
        EXPECT_NE(std::string(error.what()).find("'a'"), std::string::npos)
            << error.what();
    }
}

TEST(Dag, RejectsMalformedConstruction) {
    Dag dag;
    EXPECT_THROW(dag.add_node(""), SchedError);
    const auto a = dag.add_node("a");
    EXPECT_THROW(dag.add_node("a"), SchedError);       // duplicate id
    EXPECT_THROW(dag.add_edge(a, a), SchedError);      // self-edge
    EXPECT_THROW(dag.add_edge(a, 99), SchedError);     // out of range
    EXPECT_THROW(dag.topo_order(), SchedError);        // query before build
}

TEST(Dag, DuplicateEdgesStoreOnce) {
    Dag dag;
    const auto a = dag.add_node("a");
    const auto b = dag.add_node("b");
    dag.add_edge(a, b);
    dag.add_edge(a, b);
    EXPECT_EQ(dag.edge_count(), 1u);
}

TEST(DagBudget, HardLimitFailsSoftLimitWarns) {
    const Dag dag = diamond();
    const DagMetrics metrics = compute_metrics(dag);
    EXPECT_EQ(metrics.node_count, 5u);
    EXPECT_EQ(metrics.edge_count, 5u);
    EXPECT_EQ(metrics.max_depth, 4u);  // generate -> fleet -> agg -> verify
    EXPECT_EQ(metrics.fanout_peak, 2u);
    EXPECT_EQ(metrics.fanin_peak, 2u);

    DagBudget hard;
    hard.node_count_hard = 3;
    const BudgetCheck failed = check_budget(metrics, hard);
    EXPECT_FALSE(failed.passed);
    EXPECT_NE(failed.diagnostics.find("over budget"), std::string::npos);
    EXPECT_NE(failed.diagnostics.find("node count 5 > hard limit 3"),
              std::string::npos)
        << failed.diagnostics;

    DagBudget soft;
    soft.node_count_soft = 3;
    const BudgetCheck warned = check_budget(metrics, soft);
    EXPECT_TRUE(warned.passed);
    EXPECT_TRUE(warned.has_warnings);
    EXPECT_NE(warned.diagnostics.find("warning"), std::string::npos);

    // Zero limits mean "no limit": the default-constructed budget passes
    // everything silently.
    const BudgetCheck open = check_budget(metrics, DagBudget{});
    EXPECT_TRUE(open.passed);
    EXPECT_TRUE(open.diagnostics.empty());
}

TEST(DagBudget, CampaignDefaultAdmitsTheLargestCliCampaign) {
    // --fleets caps at 100000; the campaign DAG adds a 3-node spine and
    // two edges per fleet. The default budget must admit exactly that.
    DagMetrics metrics;
    metrics.node_count = 100003;
    metrics.edge_count = 200001;
    metrics.max_depth = 4;
    metrics.fanout_peak = 100000;
    EXPECT_TRUE(check_budget(metrics, DagBudget::campaign_default()).passed);
    metrics.node_count = 100004;
    EXPECT_FALSE(check_budget(metrics, DagBudget::campaign_default()).passed);
}

}  // namespace
