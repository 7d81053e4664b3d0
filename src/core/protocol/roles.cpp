#include "core/protocol/roles.hpp"

#include <memory>
#include <span>
#include <utility>
#include <variant>

namespace aio::core {

namespace {

WriterPool::Layout writer_layout(const Topology& topo, std::span<const double> bytes,
                                 bool carry_records) {
  WriterPool::Layout layout;
  layout.first_rank = 0;
  layout.group_of = [topo](Rank r) { return topo.group_of(r); };
  layout.sc_of = [topo](GroupId g) { return topo.sc_rank(g); };
  layout.bytes = bytes;
  layout.carry_records = carry_records;
  return layout;
}

CoordinatorFsm::Config coordinator_config(const Topology& topo, const Roles::Config& c,
                                          const std::shared_ptr<const IoJob>& job) {
  CoordinatorFsm::Config cc;
  cc.n_groups = topo.n_groups();
  cc.group_size_of = [topo](GroupId g) { return topo.group_size(g); };
  cc.sc_of = [topo](GroupId g) { return topo.sc_rank(g); };
  cc.rank = Topology::coordinator_rank();
  cc.stealing_enabled = c.stealing;
  cc.steal_source = c.steal_source;
  if (c.retain_global_index) cc.blueprint = [job](Rank r) { return job->blueprint_for(r); };
  return cc;
}

}  // namespace

Roles::Roles(const Topology& topo, IoJob job, Config config)
    : topo_(topo),
      job_(std::make_shared<const IoJob>(std::move(job))),
      writers_(writer_layout(topo_, job_->bytes_per_writer, config.retain_global_index),
               [this](Rank r) { return job_->index_size_for(r); }),
      coord_(coordinator_config(topo_, config, job_)) {
  const std::span<const double> all_bytes{job_->bytes_per_writer};
  scs_.reserve(topo_.n_groups());
  for (GroupId g = 0; g < static_cast<GroupId>(topo_.n_groups()); ++g) {
    SubCoordinatorFsm::Config sc;
    sc.group = g;
    sc.rank = topo_.sc_rank(g);
    sc.coordinator = Topology::coordinator_rank();
    sc.first_member = topo_.group_begin(g);
    sc.n_members = topo_.group_size(g);
    sc.member_bytes = all_bytes.subspan(static_cast<std::size_t>(sc.first_member), sc.n_members);
    sc.max_concurrent = config.max_concurrent;
    sc.keep_placements = config.retain_global_index;
    scs_.emplace_back(std::move(sc));
  }
}

Actions Roles::deliver(Rank to, const Message& msg) {
  // Writers take DO_WRITE; the SC on `to` takes its file's traffic; the
  // coordinator takes the rest.
  struct Route {
    Roles& roles;
    Rank to;
    Actions operator()(const DoWrite& m) { return roles.writers_.on_do_write(to, m); }
    Actions operator()(const WriteComplete& m) {
      if (m.kind == WriteComplete::Kind::WriterDone) return roles.sc_on(to).on_write_complete(m);
      return roles.coord_.on_write_complete(m);
    }
    Actions operator()(const IndexBody& m) { return roles.sc_on(to).on_index_body(m); }
    Actions operator()(const AdaptiveWriteStart& m) {
      return roles.sc_on(to).on_adaptive_write_start(m);
    }
    Actions operator()(const WritersBusy& m) { return roles.coord_.on_writers_busy(m); }
    Actions operator()(const OverallWriteComplete& m) {
      return roles.sc_on(to).on_overall_write_complete(m);
    }
    Actions operator()(const SubIndex& m) { return roles.coord_.on_sub_index(m); }
  };
  return std::visit(Route{*this, to}, msg.body);
}

}  // namespace aio::core
