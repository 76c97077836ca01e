#include "serve/sampling_server.h"

#include "common/error.h"

namespace dwi::serve {

namespace {

/// splitmix64 finalizer: mixes (server_seed, request_id) into the
/// Poisson seed so CreditRisk+ scenario noise is decorrelated across
/// requests yet fully reproducible.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

SamplingServer::SamplingServer(ServeConfig cfg)
    : cfg_(cfg),
      streams_(cfg.server_seed, ServeConfig::substream_stride),
      scheduler_(SchedulerConfig{cfg.queue_capacity, cfg.max_batch},
                 &metrics_) {}

SamplingServer::~SamplingServer() { shutdown(); }

void SamplingServer::shutdown() { scheduler_.shutdown(); }

rng::Philox SamplingServer::gamma_stream(RequestId id) const {
  return streams_.stream(id * cfg_.substreams_per_request);
}

rng::Philox SamplingServer::sector_stream(RequestId id, std::size_t k) const {
  DWI_REQUIRE(k + 1 < cfg_.substreams_per_request,
              "serve: sector index exceeds the request's substream block");
  return streams_.stream(id * cfg_.substreams_per_request + 1 + k);
}

std::uint64_t SamplingServer::poisson_seed(RequestId id) const {
  return mix64((static_cast<std::uint64_t>(cfg_.server_seed) << 32) ^ id);
}

}  // namespace dwi::serve
