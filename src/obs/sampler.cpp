#include "obs/sampler.hpp"

#include <utility>

namespace aio::obs {

void Sampler::add_probe(const std::string& name, Probe probe) {
  probes_.push_back(Entry{&registry_.series(name), std::move(probe)});
}

void Sampler::tick(double now) {
  ++ticks_;
  for (Entry& p : probes_) p.series->add(now, p.probe(now));
}

}  // namespace aio::obs
