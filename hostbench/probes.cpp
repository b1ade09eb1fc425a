#include "probes.hpp"

#include <cstring>
#include <functional>
#include <numeric>

#include "buffers/buffer.hpp"
#include "mpi/collectives.hpp"
#include "mpi/mailbox.hpp"
#include "mpi/payload_pool.hpp"
#include "mpi/world.hpp"
#include "net/network.hpp"
#include "pylayer/costs.hpp"
#include "pylayer/pickle.hpp"
#include "pylayer/pycomm.hpp"
#include "simtime/rng.hpp"

namespace hostbench {

namespace {

using namespace ombx;

/// World geometry the workloads use at a given size: Frontera 16 x 1 and
/// 16 x 56, frontera-large x 32 for the campaign's np, 2 x 1 for p2p.
mpi::WorldConfig world_for(int np) {
  mpi::WorldConfig wc;
  wc.tuning = net::MpiTuning::mvapich2();
  wc.nranks = np;
  wc.sched = sched::Mode::kFibers;
  wc.cluster = net::ClusterSpec::frontera();
  if (np <= 16) {
    wc.ppn = 1;
  } else if (np % 56 == 0 && np <= 896) {
    wc.ppn = 56;
  } else {
    wc.cluster = net::ClusterSpec::frontera_large();
    wc.ppn = 32;
  }
  wc.payload = np > 64 ? mpi::PayloadMode::kSynthetic : mpi::PayloadMode::kReal;
  return wc;
}

int ceil_log2(int n) {
  int k = 0;
  while ((1 << k) < n) ++k;
  return k;
}

bool is_pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

// Messages one call sends in total over all ranks, in closed form for the
// algorithm the MPICH-like auto rules pick under the mvapich2 preset
// (src/mpi/coll_allreduce.cpp, src/mpi/coll_allgather.cpp).
std::uint64_t allreduce_msgs(int n, std::size_t bytes) {
  const auto un = static_cast<std::uint64_t>(n);
  if (bytes > 32768 && n <= 64) return 2 * un * (un - 1);  // ring
  // Recursive doubling with the non-power-of-two fold: the first 2*rem
  // ranks fold pairwise (rem sends), p2 survivors exchange log2(p2) times,
  // and rem results go back.
  const int p2 = 1 << (ceil_log2(n + 1) - 1);
  const auto rem = static_cast<std::uint64_t>(n - p2);
  return 2 * rem + static_cast<std::uint64_t>(p2) *
                       static_cast<std::uint64_t>(ceil_log2(p2));
}

std::uint64_t allgather_msgs(int n, std::size_t bytes) {
  const auto un = static_cast<std::uint64_t>(n);
  const std::size_t total = static_cast<std::size_t>(n) * bytes;
  if (total <= 512 * 1024 && is_pow2(n)) {  // recursive doubling
    return un * static_cast<std::uint64_t>(ceil_log2(n));
  }
  if (total <= 512 * 1024 || n > 64) {  // Bruck
    return un * static_cast<std::uint64_t>(ceil_log2(n));
  }
  return un * (un - 1);  // ring
}

std::uint64_t msgs_sent(mpi::World& world) {
  std::uint64_t total = 0;
  const obs::Metrics* m = world.engine().metrics();
  for (int r = 0; r < m->nranks(); ++r) {
    const obs::RankCounters& c = m->rank(r);
    total += c.eager_msgs.load() + c.rendezvous_msgs.load() +
             c.self_msgs.load();
  }
  return total;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return simtime::SplitMix64(a * 0x9e3779b97f4a7c15ULL ^ b).next();
}

std::vector<double> flatten(const std::vector<std::vector<double>>& per_rank) {
  std::vector<double> all;
  for (const auto& v : per_rank) all.insert(all.end(), v.begin(), v.end());
  return all;
}

// ---- sched -----------------------------------------------------------------

void probe_sched(int np, std::vector<Metric>& out) {
  constexpr int kReps = 7;
  std::vector<double> ctor;
  std::vector<double> empty;
  for (int i = 0; i < kReps; ++i) {
    const double t0 = now_s();
    mpi::World world(world_for(np));
    const double t1 = now_s();
    world.run([](mpi::Comm&) {});
    const double t2 = now_s();
    ctor.push_back((t1 - t0) * 1e3);
    empty.push_back((t2 - t1) * 1e3);
  }
  out.push_back({"sched.world_ctor_ms", "ms", p50(ctor)});
  out.push_back({"sched.empty_run_ms", "ms", p50(empty)});
}

// ---- mailbox ---------------------------------------------------------------

/// Steady-state exact matching with `fanin` sources queued at once: each
/// op dequeues one source's message (hinted, exact tag) and re-enqueues
/// it, in a seeded order over the sources.
void probe_mailbox(int fanin, std::uint64_t seed, std::vector<Metric>& out) {
  constexpr int kTag = 7;
  constexpr int kOps = 300000;
  mpi::Mailbox box(8192, nullptr, /*owner_rank=*/0, /*max_src_world=*/fanin);
  for (int s = 0; s < fanin; ++s) {
    mpi::Message m;
    m.src = s;
    m.src_world = s;
    m.tag = kTag;
    m.bytes = 8;
    box.enqueue(std::move(m));
  }
  simtime::Xoshiro256 rng(seed);
  std::vector<int> order(static_cast<std::size_t>(fanin));
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  std::vector<double> ns;
  ns.reserve(kOps);
  for (int i = 0; i < kOps; ++i) {
    const int s = order[static_cast<std::size_t>(i % fanin)];
    const auto t0 = std::chrono::steady_clock::now();
    mpi::Message m = box.dequeue_match(0, s, kTag, s);
    box.enqueue(std::move(m));
    const auto t1 = std::chrono::steady_clock::now();
    ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  out.push_back({"mailbox.match_ns_p50", "ns", p50(ns)});
  out.push_back({"mailbox.match_ns_p99", "ns", p99(ns)});
}

// ---- engine + pylayer ------------------------------------------------------

void probe_engine(std::vector<Metric>& out) {
  constexpr int kBlocks = 20;
  constexpr int kPerBlock = 1000;
  constexpr int kLarge = 200;
  constexpr int kWarm = 200;
  constexpr std::size_t kBig = 1 << 20;
  mpi::World world(world_for(2));
  std::vector<double> raw_us;
  std::vector<double> py_us;
  std::vector<double> rndv_us;
  world.run([&](mpi::Comm& comm) {
    const int me = comm.rank();
    const int peer = 1 - me;
    std::vector<std::byte> small(8, std::byte{1});
    std::vector<std::byte> big(kBig, std::byte{2});
    pylayer::PyComm py(comm, pylayer::PyCosts::frontera());
    auto buf = buffers::make_buffer(buffers::BufferKind::kNumpy, 8);
    // One round trip per call: through Comm (raw) or the PyComm facade.
    const auto trip = [&](std::byte* p, std::size_t bytes, bool via_py) {
      const double t0 = now_s();
      if (via_py && me == 0) {
        py.Send(*buf, bytes, peer, 2);
        (void)py.Recv(*buf, bytes, peer, 2);
      } else if (via_py) {
        (void)py.Recv(*buf, bytes, peer, 2);
        py.Send(*buf, bytes, peer, 2);
      } else if (me == 0) {
        comm.send(mpi::ConstView{p, bytes}, peer, 1);
        (void)comm.recv(mpi::MutView{p, bytes}, peer, 1);
      } else {
        (void)comm.recv(mpi::MutView{p, bytes}, peer, 1);
        comm.send(mpi::ConstView{p, bytes}, peer, 1);
      }
      return (now_s() - t0) * 1e6;
    };
    for (int i = 0; i < kWarm; ++i) (void)trip(small.data(), 8, i % 2 == 1);
    // Raw and PyComm blocks alternate so host drift hits both alike.
    for (int b = 0; b < kBlocks; ++b) {
      for (const bool via_py : {false, true}) {
        for (int i = 0; i < kPerBlock; ++i) {
          const double us = trip(small.data(), 8, via_py);
          if (me == 0) (via_py ? py_us : raw_us).push_back(us);
        }
      }
    }
    for (int i = 0; i < kWarm / 10 + kLarge; ++i) {
      const double us = trip(big.data(), kBig, false);
      if (me == 0 && i >= kWarm / 10) rndv_us.push_back(us);
    }
  });
  out.push_back({"engine.pingpong_8B_us_p50", "us", p50(raw_us)});
  out.push_back({"engine.pingpong_8B_us_p99", "us", p99(raw_us)});
  out.push_back({"engine.rndv_1MiB_us_p50", "us", p50(rndv_us)});
  out.push_back({"pylayer.direct_extra_us", "us",
                 p50(py_us) - p50(raw_us)});
}

// ---- payload pool ----------------------------------------------------------

void probe_payload_pool(std::vector<Metric>& out) {
  constexpr int kBatch = 2000;
  constexpr int kBatches = 50;
  mpi::PayloadPool pool;
  for (const auto& [bytes, name] :
       {std::pair<std::size_t, const char*>{512, "512B"},
        std::pair<std::size_t, const char*>{64 * 1024, "64KiB"}}) {
    std::vector<std::byte> src(bytes, std::byte{3});
    std::vector<double> ns;
    for (int b = 0; b < kBatches; ++b) {
      const double t0 = now_s();
      for (int i = 0; i < kBatch; ++i) {
        mpi::PooledPayload h = pool.acquire_copy(src.data(), bytes);
        h.release();
      }
      ns.push_back((now_s() - t0) * 1e9 / kBatch);
    }
    out.push_back({std::string("payload_pool.acquire_release_ns_") + name,
                   "ns", median(ns)});
  }
}

// ---- collectives -----------------------------------------------------------

/// Host time per call per rank, timed in the benchmark's own rank body
/// around the collective.  Also checks the messages each call sent.
void probe_collectives(Checks& checks, std::vector<Metric>& out) {
  constexpr int kCalls = 20;
  mpi::WorldConfig wc = world_for(896);
  wc.enable_metrics = true;
  mpi::World world(wc);
  const int n = wc.nranks;
  for (const bool gather : {false, true}) {
    for (const auto& [bytes, label] :
         {std::pair<std::size_t, const char*>{8, "8B"},
          std::pair<std::size_t, const char*>{8192, "8KiB"}}) {
      std::vector<std::vector<double>> us(static_cast<std::size_t>(n));
      world.run([&](mpi::Comm& c) {
        auto& mine = us[static_cast<std::size_t>(c.rank())];
        const mpi::ConstView send{nullptr, bytes};
        const mpi::MutView recv{nullptr, gather ? bytes * static_cast<std::size_t>(n)
                                                : bytes};
        for (int i = 0; i < kCalls; ++i) {
          const double t0 = now_s();
          if (gather) {
            mpi::allgather(c, send, recv);
          } else {
            mpi::allreduce(c, send, recv, mpi::Datatype::kFloat, mpi::Op::kSum);
          }
          mine.push_back((now_s() - t0) * 1e6);
        }
      });
      const std::uint64_t want =
          kCalls * (gather ? allgather_msgs(n, bytes) : allreduce_msgs(n, bytes));
      const std::string name =
          std::string("coll.") + (gather ? "allgather_" : "allreduce_") + label;
      checks.expect(msgs_sent(world) == want,
                    name + " at np=896 sent " + std::to_string(msgs_sent(world)) +
                        " messages, algorithm implies " + std::to_string(want));
      const std::vector<double> all = flatten(us);
      out.push_back({name + "_us_p50", "us", p50(all)});
      out.push_back({name + "_us_p99", "us", p99(all)});
    }
  }
  // Which mailbox path carried this traffic depends on host timing (does
  // the receiver get there first?), so these two are not program-order.
  const mpi::Engine::FastPathTotals fp = world.engine().fast_path_totals();
  out.push_back({"mailbox.fast_hits", "count", static_cast<double>(fp.fast_hits)});
  out.push_back({"mailbox.fast_fallbacks", "count",
                 static_cast<double>(fp.fast_fallbacks)});
}

void probe_bcast(std::vector<Metric>& out) {
  constexpr int kCalls = 20;
  constexpr std::size_t kBytes = 64 * 1024;
  mpi::WorldConfig wc = world_for(256);
  wc.payload = mpi::PayloadMode::kReal;
  mpi::World world(wc);
  std::vector<std::vector<double>> us(static_cast<std::size_t>(wc.nranks));
  world.run([&](mpi::Comm& c) {
    std::vector<std::byte> buf(kBytes, std::byte{4});
    auto& mine = us[static_cast<std::size_t>(c.rank())];
    for (int i = 0; i < kCalls; ++i) {
      const double t0 = now_s();
      mpi::bcast(c, mpi::MutView{buf.data(), kBytes}, 0);
      mine.push_back((now_s() - t0) * 1e6);
    }
  });
  out.push_back({"coll.bcast_64KiB_us_p50", "us", p50(flatten(us))});
  // Freelist hits depend on host timing (was the buffer back in time?).
  const mpi::PayloadPool::Stats& st = world.engine().payload_pool().stats();
  const double reuses = static_cast<double>(st.reuses.load());
  const double allocs = static_cast<double>(st.allocs.load());
  out.push_back({"payload_pool.reuse_ratio", "ratio",
                 reuses + allocs > 0 ? reuses / (reuses + allocs) : 0.0});
}

// ---- net -------------------------------------------------------------------

void probe_net(Checks& checks, std::vector<Metric>& out) {
  constexpr int kRounds = 20000;
  const net::NetworkModel model(net::ClusterSpec::frontera(),
                                net::MpiTuning::mvapich2(), 56);
  const std::pair<int, int> pairs[] = {{0, 1}, {0, 55}, {0, 56}, {3, 700},
                                       {895, 0}};
  const std::size_t sizes[] = {8, 1024, 8192, 65536, 1 << 20};
  std::vector<double> ns;
  double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    for (int r = 0; r < kRounds; ++r) {
      for (const auto& [s, d] : pairs) {
        for (const std::size_t b : sizes) {
          sink += model.transfer_us(s, d, b, net::MemSpace::kHost);
        }
      }
    }
    ns.push_back((now_s() - t0) * 1e9 /
                 (kRounds * std::size(pairs) * std::size(sizes)));
  }
  checks.expect(sink > 0.0, "net: transfer_us priced every message at 0");
  out.push_back({"net.price_ns", "ns", median(ns)});
}

// ---- pickle ----------------------------------------------------------------

std::vector<std::byte> seeded_bytes(std::uint64_t seed, std::size_t n) {
  simtime::Xoshiro256 rng(seed);
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t x = rng();
    std::memcpy(v.data() + i, &x, std::min<std::size_t>(8, n - i));
  }
  return v;
}

void probe_pickle(std::uint64_t seed, std::vector<Metric>& out) {
  constexpr int kReps = 15;
  constexpr std::size_t kBytes = 4 << 20;
  const std::vector<std::byte> data = seeded_bytes(seed, kBytes);
  std::vector<std::byte> back(kBytes);
  std::vector<double> enc;
  std::vector<double> dec;
  for (int i = 0; i < kReps; ++i) {
    const double t0 = now_s();
    const pylayer::PickleStream s =
        pylayer::encode(mpi::ConstView{data.data(), kBytes}, mpi::Datatype::kByte);
    const double t1 = now_s();
    (void)pylayer::decode(s.bytes, s.logical_bytes,
                          mpi::MutView{back.data(), kBytes}, mpi::Datatype::kByte);
    const double t2 = now_s();
    enc.push_back(static_cast<double>(kBytes) / 1e6 / (t1 - t0));
    dec.push_back(static_cast<double>(kBytes) / 1e6 / (t2 - t1));
  }
  out.push_back({"pickle.encode_mb_s", "MB/s", median(enc)});
  out.push_back({"pickle.decode_mb_s", "MB/s", median(dec)});
}

}  // namespace

void closed_form_collectives(std::uint64_t seed, Checks& checks) {
  mpi::WorldConfig wc = world_for(16);
  wc.enable_metrics = true;
  mpi::World world(wc);
  const int n = wc.nranks;
  const auto un = static_cast<std::int64_t>(n);

  // Allreduce: rank r contributes a[i] + r * b[i]; the sum is
  // n * a[i] + n (n - 1) / 2 * b[i].
  for (const std::size_t bytes : {std::size_t{8}, std::size_t{8192},
                                  std::size_t{65536}}) {
    const std::size_t elems = bytes / sizeof(std::int64_t);
    const auto a = [&](std::size_t i) {
      return static_cast<std::int64_t>(mix(seed, i) % 1000000);
    };
    const auto b = [&](std::size_t i) {
      return static_cast<std::int64_t>(mix(seed + 1, i) % 1000);
    };
    std::vector<int> bad(static_cast<std::size_t>(n), 0);
    world.run([&](mpi::Comm& c) {
      std::vector<std::int64_t> send(elems);
      std::vector<std::int64_t> recv(elems);
      for (std::size_t i = 0; i < elems; ++i) send[i] = a(i) + c.rank() * b(i);
      mpi::allreduce(c, mpi::ConstView{reinterpret_cast<std::byte*>(send.data()), bytes},
                     mpi::MutView{reinterpret_cast<std::byte*>(recv.data()), bytes},
                     mpi::Datatype::kInt64, mpi::Op::kSum);
      for (std::size_t i = 0; i < elems; ++i) {
        if (recv[i] != un * a(i) + un * (un - 1) / 2 * b(i)) {
          bad[static_cast<std::size_t>(c.rank())] = 1;
        }
      }
    });
    checks.expect(std::accumulate(bad.begin(), bad.end(), 0) == 0,
                  "allreduce np=16 " + std::to_string(bytes) +
                      " B differs from the closed-form sum");
    checks.expect(msgs_sent(world) == allreduce_msgs(n, bytes),
                  "allreduce np=16 " + std::to_string(bytes) + " B sent " +
                      std::to_string(msgs_sent(world)) + " messages, expected " +
                      std::to_string(allreduce_msgs(n, bytes)));
  }

  // Allgather: block r of every rank's result is rank r's seeded bytes.
  for (const std::size_t bytes : {std::size_t{1}, std::size_t{8192},
                                  std::size_t{65536}}) {
    const auto byte_of = [&](int r, std::size_t i) {
      return static_cast<std::byte>(
          mix(seed ^ (static_cast<std::uint64_t>(r) << 40), i) & 0xff);
    };
    std::vector<int> bad(static_cast<std::size_t>(n), 0);
    world.run([&](mpi::Comm& c) {
      std::vector<std::byte> send(bytes);
      std::vector<std::byte> recv(bytes * static_cast<std::size_t>(n));
      for (std::size_t i = 0; i < bytes; ++i) send[i] = byte_of(c.rank(), i);
      mpi::allgather(c, mpi::ConstView{send.data(), bytes},
                     mpi::MutView{recv.data(), recv.size()});
      for (int r = 0; r < n; ++r) {
        for (std::size_t i = 0; i < bytes; ++i) {
          if (recv[static_cast<std::size_t>(r) * bytes + i] != byte_of(r, i)) {
            bad[static_cast<std::size_t>(c.rank())] = 1;
          }
        }
      }
    });
    checks.expect(std::accumulate(bad.begin(), bad.end(), 0) == 0,
                  "allgather np=16 " + std::to_string(bytes) +
                      " B: a block differs from its owner's bytes");
    checks.expect(msgs_sent(world) == allgather_msgs(n, bytes),
                  "allgather np=16 " + std::to_string(bytes) + " B sent " +
                      std::to_string(msgs_sent(world)) + " messages, expected " +
                      std::to_string(allgather_msgs(n, bytes)));
  }
}

void pickle_round_trips(std::uint64_t seed, Checks& checks) {
  for (std::size_t n = 1; n <= (std::size_t{4} << 20); n *= 2) {
    const std::vector<std::byte> data = seeded_bytes(mix(seed, n), n);
    const pylayer::PickleStream s =
        pylayer::encode(mpi::ConstView{data.data(), n}, mpi::Datatype::kByte);
    const std::size_t want = pylayer::encoded_size(n, mpi::Datatype::kByte);
    checks.expect(s.bytes.size() == want && s.logical_bytes == want,
                  "pickle stream of " + std::to_string(n) +
                      " B is not encoded_size() long");
    std::vector<std::byte> back(n);
    const std::size_t got = pylayer::decode(
        s.bytes, s.logical_bytes, mpi::MutView{back.data(), n},
        mpi::Datatype::kByte);
    checks.expect(got == n && back == data,
                  "pickle round trip of " + std::to_string(n) +
                      " B is not byte-equal");
  }
}

void layer_probes(int np, std::uint64_t seed, Checks& checks,
                  std::vector<Metric>& out, SpanLog& spans) {
  const auto probe = [&](const char* layer, const std::function<void()>& fn) {
    Scope s(spans, layer);
    fn();
  };
  probe("sched", [&] { probe_sched(np, out); });
  probe("mailbox", [&] { probe_mailbox(np, seed, out); });
  probe("engine", [&] { probe_engine(out); });
  probe("payload_pool", [&] { probe_payload_pool(out); });
  probe("coll", [&] {
    probe_collectives(checks, out);
    probe_bcast(out);
  });
  probe("net", [&] { probe_net(checks, out); });
  probe("pickle", [&] { probe_pickle(seed, out); });
}

}  // namespace hostbench
