// The three protocol roles of one run (paper Algorithms 1-3), and the one
// table that says which role handles which message.
//
// A run of the adaptive protocol is a WriterPool hosting every writer, one
// SubCoordinatorFsm per group and one CoordinatorFsm.  Roles builds them
// from the run's topology, its job (payloads and blueprints) and the four
// role settings, and routes every message to the role that handles it.
// A runtime only moves messages and bytes: it starts each group, delivers
// each message with deliver(), executes the returned actions, and reports
// the writes it finished.  The simulator (AdaptiveRun), the thread runtime
// and the protocol test harness all host the protocol this way.
//
// Rank r plays the writer in pool slot r, the SC of its group when it is
// that group's first rank, and the coordinator when it is rank 0.  A
// message to r and a write r finished touch only r's roles, so a runtime
// that handles rank r's traffic on one thread may share one Roles between
// threads: each thread touches its own writer slot and SC, and only
// thread 0 the coordinator.  The one thing they share is the job, which
// they only read.  Records are built from the job's blueprint wherever they
// are read, the thread runtime's SC threads concurrently, which is why
// IoJob::blueprint must be a pure function of the rank.
#pragma once

#include <memory>
#include <vector>

#include "core/protocol/coordinator_fsm.hpp"
#include "core/protocol/subcoordinator_fsm.hpp"
#include "core/protocol/writer_pool.hpp"
#include "core/transports/layout.hpp"

namespace aio::core {

class Roles {
 public:
  struct Config {
    std::size_t max_concurrent = 1;  ///< writes in flight per file (paper: 1)
    bool stealing = true;            ///< coordinator work redistribution
    CoordinatorFsm::StealSource steal_source = CoordinatorFsm::StealSource::RoundRobin;
    /// Keep the global index: writers carry their offsets, SCs ship their
    /// placements and the coordinator gathers them (see
    /// CoordinatorFsm::Config::blueprint).
    bool retain_global_index = true;
  };

  /// The job's blueprint is called once per writer during construction,
  /// and, when the global index is kept, once more per writer each time
  /// the kept index is built; the kept index shares the job.
  Roles(const Topology& topo, IoJob job, Config config);
  // The pool and the SCs view job_; the roles stay where they were built.
  Roles(const Roles&) = delete;
  Roles& operator=(const Roles&) = delete;

  /// Group `g`'s SC signals its first writers (run as its SC rank).
  Actions start(GroupId g) { return scs_[static_cast<std::size_t>(g)].start(); }
  /// Hands `msg` to the role on rank `to` that handles it.
  Actions deliver(Rank to, const Message& msg);
  /// The data write of `writer`'s StartWriteAction finished.
  Actions on_write_done(Rank writer) { return writers_.on_write_done(writer); }
  /// The WriteIndexAction of the SC on rank `sc` finished.
  Actions on_index_write_done(Rank sc) { return sc_on(sc).on_index_write_done(); }
  /// The coordinator's WriteGlobalIndexAction finished.
  Actions on_global_index_write_done() { return coord_.on_global_index_write_done(); }

  /// Roles in the run (every writer, every SC, the coordinator); each
  /// emits exactly one RoleDoneAction.
  [[nodiscard]] std::size_t count() const { return topo_.n_writers() + topo_.n_groups() + 1; }
  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] const SubCoordinatorFsm& sc(GroupId g) const {
    return scs_[static_cast<std::size_t>(g)];
  }
  [[nodiscard]] CoordinatorFsm& coordinator() { return coord_; }
  [[nodiscard]] const CoordinatorFsm& coordinator() const { return coord_; }

 private:
  [[nodiscard]] SubCoordinatorFsm& sc_on(Rank rank) {
    return scs_[static_cast<std::size_t>(topo_.group_of(rank))];
  }

  Topology topo_;
  /// Payloads and blueprints, viewed by every role; a kept index shares it.
  std::shared_ptr<const IoJob> job_;
  WriterPool writers_;
  std::vector<SubCoordinatorFsm> scs_;  ///< indexed by group
  CoordinatorFsm coord_;
};

}  // namespace aio::core
