// Fleet benchmark instance: runs ONE instance of one workload on the unsharded
// (single-simulator) engine and prints its raw figures as a single JSON
// object on stdout. fleetbench/run.py builds this binary, repeats instances
// in fresh processes for the measured window, aggregates them and checks
// that every instance agrees.
//
//   fleetbench --workload metro-churn|broadcast-data|admission-churn
//              --seed N [--trace 0|1] [--trace-out FILE] [--length X]
//
// Workloads (see fleetbench/README.md for why each exists):
//   metro-churn      metro-large fabric, Poisson churn at 400/s, monitor on,
//                    then two signalling rounds on the loaded fabric
//   broadcast-data   metro-mid fabric, 120/s with broadcast and 30% data
//                    sessions, monitor on, then eight signalling rounds
//   admission-churn  metro-large fabric, signalling rounds only; simulated
//                    time never advances
// --length overrides the size of one instance: simulated seconds for the
// fleets, rounds for admission-churn.
//
// Everything here is measured from outside the library: the benchmark times
// the calls it makes into the layers' public functions, and with --trace 1
// records spans around them plus read-only probe events on the simulator
// clock. Independent checks recompute the bandwidth ledger from the live
// sessions; each check that finds a breach is one failed operation.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/atm/link.h"
#include "src/core/stream.h"
#include "src/core/system.h"
#include "src/scenario/topology.h"
#include "src/scenario/workload.h"
#include "src/sim/random.h"

using namespace pegasus;

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

constexpr uint64_t kFnvBasis = 1469598103934665603ULL;

uint64_t Mix(uint64_t h, int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<uint64_t>(v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

// --- tracing: spans around every call the benchmark makes into a layer ---

class Tracer {
 public:
  struct Span {
    const char* name;  // "<layer>.<call>"
    int64_t start_ns;
    int64_t end_ns;
    int parent;  // index of the enclosing span, -1 at top level
  };

  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

  bool on() const { return on_; }
  int Begin(const char* name) {
    if (!on_) {
      return -1;
    }
    spans_.push_back(Span{name, NowNs(), -1, open_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void End(int id) {
    if (id < 0) {
      return;
    }
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    open_ = spans_[static_cast<size_t>(id)].parent;
  }
  const std::vector<Span>& spans() const { return spans_; }
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_).count();
  }

 private:
  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  int open_ = -1;
};

// Times one call: always into `us` (end-to-end latency samples), and as a
// span when tracing.
template <typename F>
auto Timed(Tracer& tracer, const char* name, std::vector<double>* us, F&& call) {
  const int span = tracer.Begin(name);
  const auto t0 = Clock::now();
  auto result = call();
  us->push_back(Since(t0) * 1e6);
  tracer.End(span);
  return result;
}

// Wall and CPU accumulated over the stretches of a phase that do the
// program's work, leaving out the checks run between them.
struct Stopwatch {
  double wall_s = 0;
  double cpu_s = 0;
  Clock::time_point wall0;
  double cpu0 = 0;
  void Start() {
    wall0 = Clock::now();
    cpu0 = CpuSeconds();
  }
  void Stop() {
    wall_s += Since(wall0);
    cpu_s += CpuSeconds() - cpu0;
  }
};

// --- independent checks ---

class Checker {
 public:
  Checker(core::PegasusSystem* system, Tracer* tracer) : system_(system), tracer_(tracer) {}

  int64_t checks() const { return checks_; }
  int64_t failed() const { return failed_; }
  const std::string& first_failure() const { return first_failure_; }

  void Expect(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) {
      if (failed_ == 0) {
        first_failure_ = what;
      }
      ++failed_;
    }
  }

  // Per-link reservation recomputed from the live sessions: each leg's
  // granted rate on every link of its VC, a tree edge counted once.
  // `skip` leaves one session out.
  std::vector<int64_t> RecomputedReservations(const core::StreamSession* skip = nullptr) const {
    const atm::Network& net = system_->network();
    std::vector<int64_t> expected(net.links().size(), 0);
    for (const auto& s : system_->streams()) {
      if (!s->active() || s.get() == skip) {
        continue;
      }
      for (const auto& leg : s->legs()) {
        const std::vector<atm::Link*>* links = net.VcLinks(leg.vc);
        if (links == nullptr) {
          continue;
        }
        for (const atm::Link* link : *links) {
          expected[static_cast<size_t>(link->id())] += leg.granted_bps;
        }
      }
    }
    return expected;
  }

  // The network's ledger equals the reservation recomputed from sessions.
  void Ledger(const char* when) {
    const int span = tracer_->Begin("check.ledger");
    const std::vector<int64_t> expected = RecomputedReservations();
    int64_t mismatches = 0;
    for (const auto& link : system_->network().links()) {
      if (system_->network().ReservedBps(link.get()) != expected[static_cast<size_t>(link->id())]) {
        ++mismatches;
      }
    }
    tracer_->End(span);
    Expect(mismatches == 0, std::string("ledger ") + when + ": " + std::to_string(mismatches) +
                                " links differ from the live sessions' reservations");
  }

  // Every edge of `tree` carries exactly one stream's rate: its ledger
  // entry minus every other live session's share is the tree's grant, and
  // no edge is listed twice.
  void TreeEdges(const core::StreamSession* tree) {
    const int span = tracer_->Begin("check.tree_edges");
    const atm::Network& net = system_->network();
    const std::vector<int64_t> others = RecomputedReservations(tree);
    const auto& leg = tree->legs().front();
    const std::vector<atm::Link*>* links = net.VcLinks(leg.vc);
    int64_t bad = links == nullptr ? 1 : 0;
    if (links != nullptr) {
      std::unordered_set<const atm::Link*> seen;
      for (const atm::Link* link : *links) {
        const int64_t carried = net.ReservedBps(link) - others[static_cast<size_t>(link->id())];
        if (!seen.insert(link).second || carried != leg.granted_bps) {
          ++bad;
        }
      }
    }
    tracer_->End(span);
    Expect(bad == 0, "tree edges: " + std::to_string(bad) + " edges do not carry one stream");
  }

  // With no session live, every link's reservation is 0 and only the VCs
  // that existed before any session are open.
  void Drained(int64_t base_vcs, const char* when) {
    const int span = tracer_->Begin("check.drained");
    int64_t reserved = 0;
    for (const auto& link : system_->network().links()) {
      if (system_->network().ReservedBps(link.get()) != 0) {
        ++reserved;
      }
    }
    const int64_t vcs = system_->network().open_vc_count();
    tracer_->End(span);
    Expect(reserved == 0 && vcs == base_vcs,
           std::string("drain ") + when + ": " + std::to_string(reserved) +
               " links still reserved, " + std::to_string(vcs) + " VCs open vs base " +
               std::to_string(base_vcs));
  }

 private:
  core::PegasusSystem* system_;
  Tracer* tracer_;
  int64_t checks_ = 0;
  int64_t failed_ = 0;
  std::string first_failure_;
};

// --- signalling rounds ---

struct SignallingStats {
  int64_t ops = 0;
  int64_t opens_refused = 0;
  int64_t grafts_refused = 0;
  Stopwatch clock;
  std::vector<double> open_us, reneg_us, close_us, graft_us, prune_us;
  uint64_t fingerprint = kFnvBasis;
};

core::MulticastSink SinkAt(core::Workstation* ws) {
  core::MulticastSink sink;
  sink.ws = ws;
  sink.endpoint = ws->host();
  return sink;
}

// One round of pure signalling over every host: one 2 Mb/s unicast stream
// per host, each between a random pair of distinct hosts, renegotiated to
// 60% and closed; then one broadcast tree from a random host, every other
// host grafted onto it and pruned off it, and the tree closed.
void SignallingRound(core::PegasusSystem& system, const scenario::MetroTopology& topo,
                     sim::Rng& rng, Tracer& tracer, Checker& checker, SignallingStats* st) {
  const int n = static_cast<int>(topo.hosts.size());
  std::vector<core::StreamSession*> open;
  open.reserve(static_cast<size_t>(n));
  int64_t reneg_ok = 0;
  int64_t prunes_ok = 0;

  st->clock.Start();
  for (int k = 0; k < n; ++k) {
    const int a = static_cast<int>(rng.UniformInt(0, n - 1));
    int b = static_cast<int>(rng.UniformInt(0, n - 2));
    if (b >= a) {
      ++b;
    }
    core::Workstation* src = topo.hosts[static_cast<size_t>(a)];
    core::Workstation* dst = topo.hosts[static_cast<size_t>(b)];
    const core::StreamResult r = Timed(tracer, "core.open", &st->open_us, [&] {
      return system.BuildStream()
          .FromEndpoint(src, src->host())
          .ToEndpoint(dst, dst->host())
          .WithSpec(core::StreamSpec::Video(25.0, 2'000'000))
          .Open();
    });
    if (r.report.ok()) {
      open.push_back(r.session);
    } else {
      ++st->opens_refused;
    }
  }
  st->clock.Stop();
  checker.Ledger("after unicast opens");

  st->clock.Start();
  for (core::StreamSession* s : open) {
    core::StreamSpec spec = s->contract().granted;
    spec.bandwidth_bps = spec.bandwidth_bps * 6 / 10;
    if (Timed(tracer, "core.renegotiate", &st->reneg_us, [&] { return s->Renegotiate(spec); })
            .ok()) {
      ++reneg_ok;
    }
  }
  for (core::StreamSession* s : open) {
    Timed(tracer, "core.close", &st->close_us, [&] {
      s->Close();
      return true;
    });
  }

  const int head = static_cast<int>(rng.UniformInt(0, n - 1));
  const int first = (head + 1) % n;
  core::Workstation* head_ws = topo.hosts[static_cast<size_t>(head)];
  std::vector<double> tree_us;
  const core::StreamResult tree = Timed(tracer, "core.open_tree", &tree_us, [&] {
    return system.BuildStream()
        .FromEndpoint(head_ws, head_ws->host())
        .ToMany({SinkAt(topo.hosts[static_cast<size_t>(first)])})
        .WithSpec(core::StreamSpec::Video(25.0, 3'000'000))
        .Open();
  });
  std::vector<int> grafted;
  if (tree.report.ok()) {
    for (int h = 0; h < n; ++h) {
      if (h == head || h == first) {
        continue;
      }
      const core::MulticastSink sink = SinkAt(topo.hosts[static_cast<size_t>(h)]);
      if (Timed(tracer, "core.graft", &st->graft_us, [&] { return tree.session->AddSink(sink); })
              .ok()) {
        grafted.push_back(h);
      } else {
        ++st->grafts_refused;
      }
    }
  }
  st->clock.Stop();
  checker.Ledger("after grafts");
  if (tree.report.ok()) {
    checker.TreeEdges(tree.session);
  }

  st->clock.Start();
  for (int h : grafted) {
    const atm::Endpoint* ep = topo.hosts[static_cast<size_t>(h)]->host();
    if (Timed(tracer, "core.prune", &st->prune_us, [&] { return tree.session->RemoveSink(ep); })) {
      ++prunes_ok;
    }
  }
  if (tree.report.ok()) {
    Timed(tracer, "core.close", &st->close_us, [&] {
      tree.session->Close();
      return true;
    });
  }
  st->clock.Stop();

  const int64_t opens = n;
  const int64_t tree_ops = tree.report.ok() ? 2 : 1;
  st->ops += opens + static_cast<int64_t>(open.size()) * 2 + tree_ops +
             static_cast<int64_t>(n - 2) * (tree.report.ok() ? 1 : 0) +
             static_cast<int64_t>(grafted.size());
  for (int64_t v : {static_cast<int64_t>(open.size()), st->opens_refused, reneg_ok,
                    static_cast<int64_t>(head), static_cast<int64_t>(grafted.size()),
                    st->grafts_refused, prunes_ok}) {
    st->fingerprint = Mix(st->fingerprint, v);
  }
}

// --- workloads ---

scenario::TopologyParams Metro(int cores, int aggs, int edges, int hosts) {
  scenario::TopologyParams p;
  p.core_switches = cores;
  p.agg_per_core = aggs;
  p.edge_per_agg = edges;
  p.hosts_per_edge = hosts;
  p.storage_per_core = 2;
  return p;
}

struct Workload {
  std::string name;
  bool fleet = false;
  scenario::TopologyParams topo;
  scenario::WorkloadParams params;  // fleets only
  double length = 0;                // simulated seconds (fleets) or rounds
  int signalling_rounds = 0;        // after the fleet run (fleets only)
};

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* w) {
  w->name = name;
  w->params.seed = seed;
  w->params.mean_holding_sec = 5.0;
  w->params.enable_qos_monitor = true;
  if (name == "metro-churn") {
    w->fleet = true;
    w->topo = Metro(3, 3, 4, 30);
    w->params.arrivals_per_sec = 400.0;
    w->params.data_session_fraction = 0.02;
    w->length = 8;
    w->signalling_rounds = 2;
  } else if (name == "broadcast-data") {
    w->fleet = true;
    w->topo = Metro(2, 2, 3, 16);
    w->params.arrivals_per_sec = 120.0;
    w->params.broadcast_weight = 0.3;
    w->params.data_session_fraction = 0.3;
    w->length = 3;
    w->signalling_rounds = 8;
  } else if (name == "admission-churn") {
    w->topo = Metro(3, 3, 4, 30);
    w->length = 30;
  } else {
    return false;
  }
  return true;
}

// Read-only sample taken on the simulator clock during a traced fleet run.
struct Probe {
  double sim_s;
  double wall_s;
  uint64_t executed;  // events executed so far, this probe's own excluded
  uint64_t cell_hops;
  int64_t monitor_ticks;
  int64_t live_sessions;
};

struct Result {
  double setup_topology_s = 0;
  double setup_catalog_s = 0;
  double run_wall_s = 0;
  double run_cpu_s = 0;
  double sim_s = 0;
  uint64_t events = 0;
  scenario::FleetMetrics fleet;
  int64_t monitor_ticks = 0, monitor_signals = 0, monitor_recoveries = 0;
  int64_t vcs_open_end = 0;
  int64_t rejects_bandwidth = 0, rejects_no_path = 0;
  int64_t retained_sessions = 0;
  SignallingStats sig;
  std::vector<Probe> probes;
};

void WriteTrace(const std::string& path, const Workload& w, uint64_t seed, const Tracer& tracer,
                const std::vector<Probe>& probes) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fleetbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu,\n \"spans\": [", w.name.c_str(),
               static_cast<unsigned long long>(seed));
  const auto& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(f, "%s\n  [\"%s\", %.3f, %.3f, %d]", i ? "," : "", spans[i].name,
                 static_cast<double>(spans[i].start_ns) / 1e3,
                 static_cast<double>(spans[i].end_ns) / 1e3, spans[i].parent);
  }
  std::fprintf(f, "],\n \"probes\": [");
  for (size_t i = 0; i < probes.size(); ++i) {
    const Probe& p = probes[i];
    std::fprintf(f, "%s\n  {\"sim_s\": %.3f, \"wall_s\": %.6f, \"events\": %llu, "
                 "\"cell_hops\": %llu, \"monitor_ticks\": %lld, \"live_sessions\": %lld}",
                 i ? "," : "", p.sim_s, p.wall_s, static_cast<unsigned long long>(p.executed),
                 static_cast<unsigned long long>(p.cell_hops),
                 static_cast<long long>(p.monitor_ticks), static_cast<long long>(p.live_sessions));
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

void Run(const Workload& w, uint64_t seed, Tracer& tracer, Checker& checker,
         core::PegasusSystem& system, Result* out) {
  sim::Simulator& sim = *system.simulator();
  auto t0 = Clock::now();
  int span = tracer.Begin("scenario.build_topology");
  const scenario::MetroTopology topo = scenario::BuildMetroTopology(system, w.topo);
  tracer.End(span);
  out->setup_topology_s = Since(t0);
  const int64_t base_vcs = system.network().open_vc_count();

  if (w.fleet) {
    t0 = Clock::now();
    span = tracer.Begin("scenario.seed_catalog");
    scenario::ScenarioEngine engine(&system, &topo, w.params);
    tracer.End(span);
    out->setup_catalog_s = Since(t0);

    const sim::DurationNs duration = static_cast<sim::DurationNs>(w.length * 1e9);
    Clock::time_point wall0;
    if (tracer.on()) {
      // Probes read counters only; they must leave the fingerprint unchanged.
      const sim::DurationNs period = w.params.metrics_period;
      const sim::TimeNs start = sim.now();
      for (sim::TimeNs t = start + period; t <= start + duration; t += period) {
        sim.ScheduleAt(t, [&, t, start] {
          uint64_t cells = 0;
          for (const auto& link : system.network().links()) {
            cells += link->cells_sent();
          }
          const core::QosMonitor* mon = system.qos_monitor();
          out->probes.push_back(Probe{static_cast<double>(t - start) / 1e9, Since(wall0),
                                      sim.executed() - out->probes.size() - 1, cells,
                                      mon != nullptr ? mon->ticks() : 0,
                                      engine.active_sessions()});
        });
      }
    }
    const uint64_t executed0 = sim.executed();
    const double cpu0 = CpuSeconds();
    wall0 = Clock::now();
    span = tracer.Begin("sim.run");
    out->fleet = engine.Run(duration);
    tracer.End(span);
    out->run_wall_s = Since(wall0);
    out->run_cpu_s = CpuSeconds() - cpu0;
    out->sim_s = w.length;
    out->events = sim.executed() - executed0 - out->probes.size();
    out->vcs_open_end = system.network().open_vc_count();

    const scenario::FleetMetrics& m = out->fleet;
    checker.Expect(m.arrivals == m.admitted + m.blocked, "fleet: arrivals != admitted + blocked");
    checker.Expect(m.blocked == m.blocked_network + m.blocked_disk + m.blocked_content_busy +
                                    m.blocked_other,
                   "fleet: blocked != sum of its causes");
    checker.Ledger("at the end of the fleet run");
    if (const core::QosMonitor* mon = system.qos_monitor(); mon != nullptr) {
      out->monitor_ticks = mon->ticks();
      out->monitor_signals = mon->congestion_signals() + mon->pressure_signals();
      out->monitor_recoveries = mon->congestion_recoveries() + mon->pressure_recoveries();
    }

    // Signalling on the loaded fabric, then every live session closed.
    sim::Rng rng(seed ^ 0x5167a11e5ULL);
    for (int r = 0; r < w.signalling_rounds; ++r) {
      SignallingRound(system, topo, rng, tracer, checker, &out->sig);
      checker.Ledger("after a signalling round");
    }
    for (const auto& s : system.streams()) {
      if (s->active()) {
        s->Close();
      }
    }
    checker.Drained(base_vcs, "after closing every fleet session");
  } else {
    sim::Rng rng(seed);
    const uint64_t executed0 = sim.executed();
    for (int r = 0; r < static_cast<int>(w.length); ++r) {
      SignallingRound(system, topo, rng, tracer, checker, &out->sig);
      checker.Drained(base_vcs, "after a churn round");
    }
    out->run_wall_s = out->sig.clock.wall_s;
    out->run_cpu_s = out->sig.clock.cpu_s;
    out->events = sim.executed() - executed0;
    out->vcs_open_end = system.network().open_vc_count();
  }
  out->rejects_bandwidth = system.network().admission_rejections_bandwidth();
  out->rejects_no_path = system.network().admission_rejections_no_path();
  out->retained_sessions = static_cast<int64_t>(system.streams().size());
}

// Steady-state view of the probe series: wall per simulated second over the
// first quarter (the ramp) and the second half, and the first probe at
// which live sessions reach 90% of their second-half mean.
void SeriesFigures(const std::vector<Probe>& probes, double* ramp, double* steady,
                   double* steady_at) {
  *ramp = *steady = *steady_at = 0;
  if (probes.size() < 8) {
    return;
  }
  const size_t q = probes.size() / 4;
  const size_t h = probes.size() / 2;
  const Probe& last = probes.back();
  *ramp = probes[q - 1].wall_s / probes[q - 1].sim_s;
  *steady = (last.wall_s - probes[h - 1].wall_s) / (last.sim_s - probes[h - 1].sim_s);
  double live = 0;
  for (size_t i = h; i < probes.size(); ++i) {
    live += static_cast<double>(probes[i].live_sessions);
  }
  live /= static_cast<double>(probes.size() - h);
  for (const Probe& p : probes) {
    if (static_cast<double>(p.live_sessions) >= 0.9 * live) {
      *steady_at = p.sim_s;
      break;
    }
  }
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) {
    s += x;
  }
  return s;
}

void PrintResult(const Workload& w, uint64_t seed, bool trace, const Result& r,
                 const Checker& checker, const Tracer& tracer) {
  const scenario::FleetMetrics& m = r.fleet;
  const SignallingStats& sig = r.sig;
  // Admission calls: the fleet's own (FleetMetrics) or, with no fleet, the
  // benchmark's own unicast opens.
  const int64_t admit_calls = w.fleet ? m.admit_calls : static_cast<int64_t>(sig.open_us.size());
  const double admit_s = w.fleet ? m.admit_wall_ns_total / 1e9 : Sum(sig.open_us) / 1e6;
  const int64_t attempted = m.arrivals + sig.ops + checker.checks();

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, ", w.name.c_str(),
              static_cast<unsigned long long>(seed), trace ? 1 : 0);
  std::printf("\"fleet_fingerprint\": \"%016llx\", \"signalling_fingerprint\": \"%016llx\", ",
              static_cast<unsigned long long>(w.fleet ? m.Fingerprint() : 0),
              static_cast<unsigned long long>(sig.fingerprint));
  std::printf("\"attempted\": %lld, \"failed\": %lld, \"first_failure\": \"%s\", ",
              static_cast<long long>(attempted), static_cast<long long>(checker.failed()),
              checker.first_failure().c_str());
  std::printf("\"setup_topology_s\": %.6f, \"setup_catalog_s\": %.6f, \"run_wall_s\": %.6f, "
              "\"run_cpu_s\": %.6f, \"sim_s\": %.3f, \"peak_rss_mb\": %.3f, ",
              r.setup_topology_s, r.setup_catalog_s, r.run_wall_s, r.run_cpu_s, r.sim_s,
              PeakRssMb());
  std::printf("\"signalling_ops\": %lld, \"signalling_wall_s\": %.6f, \"signalling_cpu_s\": %.6f, "
              "\"opens_refused\": %lld, \"grafts_refused\": %lld, ",
              static_cast<long long>(sig.ops), sig.clock.wall_s, sig.clock.cpu_s,
              static_cast<long long>(sig.opens_refused),
              static_cast<long long>(sig.grafts_refused));
  std::printf("\"arrivals\": %lld, \"admitted\": %lld, \"blocked\": %lld, "
              "\"peak_concurrent\": %lld, \"mcast_grafts\": %lld, \"mcast_prunes\": %lld, "
              "\"retained_sessions\": %lld, ",
              static_cast<long long>(m.arrivals), static_cast<long long>(m.admitted),
              static_cast<long long>(m.blocked), static_cast<long long>(m.peak_concurrent),
              static_cast<long long>(m.mcast_grafts), static_cast<long long>(m.mcast_prunes),
              static_cast<long long>(r.retained_sessions));
  std::printf("\"events\": %llu, \"cell_hops\": %llu, \"cells_dropped\": %llu, "
              "\"vcs_open_end\": %lld, \"rejects_bandwidth\": %lld, \"rejects_no_path\": %lld, ",
              static_cast<unsigned long long>(r.events),
              static_cast<unsigned long long>(m.link_cells_sent),
              static_cast<unsigned long long>(m.link_cells_dropped),
              static_cast<long long>(r.vcs_open_end), static_cast<long long>(r.rejects_bandwidth),
              static_cast<long long>(r.rejects_no_path));
  std::printf("\"admit_calls\": %lld, \"admit_s\": %.6f, \"counter_offers\": %lld, "
              "\"adaptation_events\": %lld, \"monitor_ticks\": %lld, \"monitor_signals\": %lld, "
              "\"monitor_recoveries\": %lld, \"records_played\": %lld, "
              "\"records_recorded\": %lld",
              static_cast<long long>(admit_calls), admit_s,
              static_cast<long long>(m.counter_offers),
              static_cast<long long>(m.adaptation_events), static_cast<long long>(r.monitor_ticks),
              static_cast<long long>(r.monitor_signals),
              static_cast<long long>(r.monitor_recoveries),
              static_cast<long long>(m.records_played), static_cast<long long>(m.records_recorded));
  // Latency samples of every signalling call, in microseconds.
  const std::pair<const char*, const std::vector<double>*> samples[] = {
      {"open_us", &sig.open_us},   {"renegotiate_us", &sig.reneg_us}, {"close_us", &sig.close_us},
      {"graft_us", &sig.graft_us}, {"prune_us", &sig.prune_us}};
  for (const auto& [key, values] : samples) {
    std::printf(", \"%s\": [", key);
    for (size_t i = 0; i < values->size(); ++i) {
      std::printf("%s%.3f", i ? "," : "", (*values)[i]);
    }
    std::printf("]");
  }
  if (trace) {
    double ramp = 0, steady = 0, steady_at = 0;
    SeriesFigures(r.probes, &ramp, &steady, &steady_at);
    std::printf(", \"ramp_wall_per_sim_s\": %.6f, \"steady_wall_per_sim_s\": %.6f, "
                "\"steady_at_s\": %.3f, \"probes\": %zu, \"spans\": %zu",
                ramp, steady, steady_at, r.probes.size(), tracer.spans().size());
    // Span totals per call name: count, summed duration and self time (the
    // duration minus the part covered by child spans).
    std::vector<std::string> names;
    for (const auto& s : tracer.spans()) {
      if (std::find(names.begin(), names.end(), s.name) == names.end()) {
        names.emplace_back(s.name);
      }
    }
    std::vector<double> child_ns(tracer.spans().size(), 0.0);
    for (const auto& s : tracer.spans()) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    std::printf(", \"span_totals\": {");
    for (size_t i = 0; i < names.size(); ++i) {
      int64_t count = 0;
      double total = 0, self = 0;
      for (size_t j = 0; j < tracer.spans().size(); ++j) {
        const auto& s = tracer.spans()[j];
        if (names[i] == s.name) {
          ++count;
          total += static_cast<double>(s.end_ns - s.start_ns);
          self += static_cast<double>(s.end_ns - s.start_ns) - child_ns[j];
        }
      }
      std::printf("%s\"%s\": [%lld, %.6f, %.6f]", i ? ", " : "", names[i].c_str(),
                  static_cast<long long>(count), total / 1e9, self / 1e9);
    }
    std::printf("}");
  }
  std::printf("}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: fleetbench --workload metro-churn|broadcast-data|admission-churn "
               "--seed N [--trace 0|1] [--trace-out FILE] [--length X]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  uint64_t seed = 0;
  bool have_seed = false;
  bool trace = false;
  double length = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--length") {
      length = std::strtod(value, nullptr);
    } else {
      return Usage();
    }
  }
  Workload w;
  if (argc % 2 == 0 || !have_seed || !MakeWorkload(workload, seed, &w)) {
    return Usage();
  }
  if (length > 0) {
    w.length = length;
  }

  sim::Simulator sim;
  core::PegasusSystem system(&sim);
  Tracer tracer(trace);
  Checker checker(&system, &tracer);
  Result result;
  Run(w, seed, tracer, checker, system, &result);
  PrintResult(w, seed, trace, result, checker, tracer);
  if (trace && !trace_out.empty()) {
    WriteTrace(trace_out, w, seed, tracer, result.probes);
  }
  return 0;
}
