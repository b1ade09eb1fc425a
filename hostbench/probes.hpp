// Correctness probes and per-layer host-time probes.
//
// Correctness probes compute their expectations independently of the
// program (closed forms, seeded round trips).  Layer probes call one
// module's public API from outside and time it with the steady clock;
// nothing inside the program is instrumented.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace hostbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// At np=16 with real payloads: allreduce (int64 sum) and allgather
/// results against closed forms on rank-seeded vectors, and the messages
/// each call sends against the count its selected algorithm implies.
void closed_form_collectives(std::uint64_t seed, Checks& checks);

/// Pickle encode/decode round trips, 1 B - 4 MiB, on seeded bytes: the
/// stream decodes byte-equal and its length equals encoded_size().
void pickle_round_trips(std::uint64_t seed, Checks& checks);

/// Every per-layer probe (sched, mailbox, engine, payload pool, coll, net,
/// pylayer, pickle).  `np` is the workload's largest world (sched and the
/// mailbox fan-in follow it; the coll probes use their fixed geometries).
void layer_probes(int np, std::uint64_t seed, Checks& checks,
                  std::vector<Metric>& out, SpanLog& spans);

}  // namespace hostbench
