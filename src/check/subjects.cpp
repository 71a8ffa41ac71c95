#include "check/subjects.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "check/invariants.h"
#include "fault/fault_injector.h"
#include "conn/dfs.h"
#include "conn/flood.h"
#include "graph/generators.h"
#include "graph/mst.h"
#include "graph/shortest_paths.h"
#include "graph/tree.h"
#include "mst/ghs.h"
#include "sim/sync_engine.h"
#include "spt/bellman_ford.h"
#include "spt/recur.h"
#include "sync/synchronizer.h"

namespace csca {

namespace {

std::string join(const std::vector<std::int64_t>& xs) {
  std::ostringstream os;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) os << ",";
    os << xs[i];
  }
  return os.str();
}

// Each plain subject is one (factory, digest) pair; run_checked and
// run_parallel consume the same pair, which is what makes the
// cross-engine determinism contract checkable per subject. The digest
// closures capture the graph by reference: they are only invoked inside
// the run_* call, while the caller's graph is alive.

ProcessFactory flood_factory(const Graph&) {
  return [](NodeId v) { return std::make_unique<FloodProcess>(v, 0); };
}

DigestFn flood_digest(const Graph& g) {
  return [&g](ProcessHost& net, std::vector<std::string>& violations) {
    int reached = 0;
    std::vector<EdgeId> parents(static_cast<std::size_t>(g.node_count()),
                                kNoEdge);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const auto& p = net.process_as<FloodProcess>(v);
      if (p.reached()) ++reached;
      parents[static_cast<std::size_t>(v)] = p.parent_edge();
    }
    bool spanning = false;
    try {
      spanning =
          RootedTree::from_parent_edges(g, 0, std::move(parents)).spanning();
    } catch (const std::exception& e) {
      violations.push_back(
          std::string("first-receipt edges are not a tree: ") + e.what());
    }
    std::ostringstream os;
    os << "reached=" << reached << "/" << g.node_count()
       << " spanning=" << (spanning ? 1 : 0);
    return os.str();
  };
}

ProcessFactory dfs_factory(const Graph&) {
  return [](NodeId v) { return std::make_unique<DfsProcess>(v, 0); };
}

DigestFn dfs_digest(const Graph& g) {
  return [&g](ProcessHost& net, std::vector<std::string>&) {
    std::vector<std::int64_t> tree;
    int visited = 0;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const auto& p = net.process_as<DfsProcess>(v);
      if (p.visited()) ++visited;
      if (p.parent_edge() != kNoEdge) tree.push_back(p.parent_edge());
    }
    std::sort(tree.begin(), tree.end());
    std::ostringstream os;
    os << "visited=" << visited << " tree=[" << join(tree) << "] w="
       << net.process_as<DfsProcess>(0).center_estimate()
       << " done=" << (net.process_as<DfsProcess>(0).done() ? 1 : 0);
    return os.str();
  };
}

ProcessFactory ghs_factory(const Graph& g, GhsMode mode) {
  return [&g, mode](NodeId v) {
    return std::make_unique<GhsProcess>(g, v, mode);
  };
}

DigestFn ghs_digest(const Graph& g) {
  return [&g](ProcessHost& net, std::vector<std::string>& violations) {
    NodeId leader = kNoNode;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const auto& p = net.process_as<GhsProcess>(v);
      if (!p.done()) {
        violations.push_back("node " + std::to_string(v) +
                             " never terminated");
        return std::string("unterminated");
      }
      if (v == 0) {
        leader = p.leader();
      } else if (p.leader() != leader) {
        violations.push_back(
            "leader disagreement: node " + std::to_string(v) + " elected " +
            std::to_string(p.leader()) + ", node 0 elected " +
            std::to_string(leader));
      }
    }
    std::vector<std::int64_t> mst;
    Weight w = 0;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const auto& pu = net.process_as<GhsProcess>(g.edge(e).u);
      const auto& pv = net.process_as<GhsProcess>(g.edge(e).v);
      if (pu.branch(e) != pv.branch(e)) {
        violations.push_back("edge " + std::to_string(e) +
                             " branch state disagrees between its "
                             "endpoints");
      }
      if (pu.branch(e)) {
        mst.push_back(e);
        w += g.weight(e);
      }
    }
    std::vector<EdgeId> oracle = kruskal_mst(g);
    std::sort(oracle.begin(), oracle.end());
    if (!std::equal(mst.begin(), mst.end(), oracle.begin(), oracle.end(),
                    [](std::int64_t a, EdgeId b) {
                      return a == static_cast<std::int64_t>(b);
                    })) {
      violations.push_back("computed MST differs from the Kruskal oracle");
    }
    std::ostringstream os;
    os << "mst=[" << join(mst) << "] w=" << w;
    return os.str();
  };
}

ProcessFactory spt_recur_factory(const Graph& g) {
  const Weight tau = std::max<Weight>(1, g.max_weight());
  return [&g, tau](NodeId v) {
    return std::make_unique<SptRecurProcess>(g, v, 0, tau);
  };
}

DigestFn spt_recur_digest(const Graph& g) {
  return [&g](ProcessHost& net, std::vector<std::string>& violations) {
    std::vector<std::int64_t> dist;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      dist.push_back(net.process_as<SptRecurProcess>(v).dist());
    }
    const ShortestPaths sp = dijkstra(g, 0);
    if (dist != sp.dist) {
      violations.push_back("distances differ from the Dijkstra oracle");
    }
    return "dist=[" + join(dist) + "]";
  };
}

// Shared driver for the synchronizer-hosted Bellman-Ford subjects: a
// reference run on the weighted synchronous engine supplies t_pi, then
// the hosted asynchronous run executes under `spec` — on the sequential
// Network with the invariant checker attached (shards == 0), or on the
// selected parallel engine through run_parallel, with the
// synchronizer's host_factory (shards > 0). The SynchronizedNetwork is built either way: it owns
// the shared coordination data (beta tree, gamma partitions) the hosts
// read.
SubjectOutcome run_synchronized_bf(const Graph& g, const ScheduleSpec& spec,
                                   SynchronizerKind kind, int shards,
                                   ParBackend backend) {
  SubjectOutcome out;
  try {
    const Graph ng =
        kind == SynchronizerKind::kGammaW ? normalized_copy(g) : g;
    std::vector<Weight> orig_w(static_cast<std::size_t>(g.edge_count()));
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      orig_w[static_cast<std::size_t>(e)] = g.weight(e);
    }
    const auto factory = [&orig_w](NodeId v) {
      return std::make_unique<InSynchBellmanFord>(v, 0, &orig_w);
    };
    // The t_pi reference run stays fault-free: it supplies the bound the
    // hosted (possibly faulted) run is judged against.
    SyncEngine ref(ng, factory, kind == SynchronizerKind::kGammaW);
    const RunStats sync_stats = ref.run();
    const auto t_pi =
        static_cast<std::int64_t>(sync_stats.completion_time) + 1;

    SynchronizedNetwork snet(ng, factory, kind, /*k=*/2, t_pi,
                             spec.make_delay(), spec.seed);
    // Counts the hosted processes that finished and checks their
    // distances against the Dijkstra oracle; reads either engine.
    int hosted_finished = 0;
    const auto hosted_digest = [&](ProcessHost& host,
                                   std::vector<std::string>& oracle) {
      for (NodeId v = 0; v < ng.node_count(); ++v) {
        if (SynchronizedNetwork::hosted_finished_in(host, v)) {
          ++hosted_finished;
        }
      }
      if (hosted_finished != ng.node_count()) {
        oracle.push_back("hosted protocol unfinished after t_pi pulses");
      }
      const ShortestPaths sp = dijkstra(g, 0);
      std::vector<std::int64_t> dist;
      for (NodeId v = 0; v < g.node_count(); ++v) {
        const Weight d = dynamic_cast<InSynchBellmanFord&>(
                             SynchronizedNetwork::hosted_in(host, v))
                             .dist();
        dist.push_back(d);
        if (d != sp.dist[static_cast<std::size_t>(v)]) {
          oracle.push_back(
              "distance at node " + std::to_string(v) + " is " +
              std::to_string(d) + ", Dijkstra oracle says " +
              std::to_string(sp.dist[static_cast<std::size_t>(v)]));
        }
      }
      return "dist=[" + join(dist) + "]";
    };
    if (shards > 0) {
      out = run_parallel(ng, snet.host_factory(factory), spec, shards,
                         backend, hosted_digest);
      out.finished_nodes = hosted_finished;
      return out;
    }
    // Injector built against ng, the graph the engine runs on.
    const std::optional<FaultInjector> inj = make_injector(ng, spec);
    DefaultInvariantChecker checker;
    if (inj) {
      snet.network().set_faults(&*inj);
      checker.set_faults(&*inj);
    }
    snet.network().set_observer(&checker);
    out.stats = snet.run().stats;
    checker.check_final(snet.network());
    snet.network().set_observer(nullptr);
    out.violations = checker.violations();
    // Under active faults, oracle shortfalls are expected degradation.
    out.digest = hosted_digest(snet.network(),
                               inj ? out.degraded : out.violations);
    out.finished_nodes = hosted_finished;
  } catch (const std::exception& e) {
    out.failed = true;
    out.error = e.what();
  }
  return out;
}

// Wraps a (factory, digest) pair into the sequential and parallel
// runners of one CheckSubject.
template <typename FactoryFn, typename DigestMakerFn>
CheckSubject plain_subject(std::string name, FactoryFn make_factory,
                           DigestMakerFn make_digest) {
  CheckSubject out;
  out.name = std::move(name);
  out.run = [make_factory, make_digest](const Graph& g,
                                        const ScheduleSpec& s) {
    return run_checked(g, make_factory(g), s, make_digest(g));
  };
  out.run_par = [make_factory, make_digest](const Graph& g,
                                            const ScheduleSpec& s, int shards,
                                            ParBackend backend) {
    return run_parallel(g, make_factory(g), s, shards, backend,
                        make_digest(g));
  };
  return out;
}

CheckSubject sync_subject(std::string name, SynchronizerKind kind) {
  CheckSubject out;
  out.name = std::move(name);
  out.run = [kind](const Graph& g, const ScheduleSpec& s) {
    return run_synchronized_bf(g, s, kind, /*shards=*/0, ParBackend::kShard);
  };
  out.run_par = [kind](const Graph& g, const ScheduleSpec& s, int shards,
                       ParBackend backend) {
    return run_synchronized_bf(g, s, kind, shards, backend);
  };
  return out;
}

}  // namespace

std::vector<CheckSubject> builtin_subjects() {
  std::vector<CheckSubject> out;
  out.push_back(plain_subject("flood", flood_factory, flood_digest));
  out.push_back(plain_subject("dfs", dfs_factory, dfs_digest));
  out.push_back(plain_subject(
      "ghs", [](const Graph& g) { return ghs_factory(g, GhsMode::kSerialScan); },
      ghs_digest));
  out.push_back(plain_subject(
      "mst_fast",
      [](const Graph& g) { return ghs_factory(g, GhsMode::kParallelGuess); },
      ghs_digest));
  out.push_back(
      plain_subject("spt_recur", spt_recur_factory, spt_recur_digest));
  out.push_back(sync_subject("spt_synch", SynchronizerKind::kGammaW));
  out.push_back(sync_subject("bf_alpha", SynchronizerKind::kAlpha));
  out.push_back(sync_subject("bf_beta", SynchronizerKind::kBeta));
  return out;
}

}  // namespace csca
