// The serve-fleet workload and the serving-layer probes: an in-process
// serve::Server on an ephemeral loopback port, driven over at most two
// connections by a single load-generator thread.
#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <thread>

#include "autograd/variable.h"
#include "common/rng.h"
#include "datagen/metro_sim.h"
#include "obs/metrics.h"
#include "schedule.h"
#include "serve/server.h"
#include "bench.h"
#include "env_stamp.h"
#include "loadgen.h"

namespace perfbench {

namespace core = tgcrn::core;
namespace data = tgcrn::data;
namespace serve = tgcrn::serve;

namespace {

// Offered open-loop rate: light load, about a twentieth of the saturated
// closed-loop rate (about 1000/s on a 4-core Xeon at pool width 2). At
// half the saturated rate the median fell between the fast observe mode
// and the slow forecast-and-queued mode and moved twofold between runs;
// see perfbench/README.md.
constexpr double kOpenLoopRate = 50.0;  // requests per second
constexpr int32_t kEntities = 64;
constexpr int32_t kConnections = 2;
// Closed-loop requests in flight per connection: one per entity it carries.
constexpr int kWindow = kEntities / kConnections;
constexpr int kWarmRounds = 4;
// Alternating open- and closed-loop segments of an untraced run.
constexpr int kSegments = 10;

double NowS() { return static_cast<double>(NowNs()) * 1e-9; }

// A serve::Server running its poll loop on its own thread.
class LiveServer {
 public:
  explicit LiveServer(serve::InferenceSession* session) : server_(session, 0) {}
  ~LiveServer() { Stop(); }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  bool Start(std::string* error) {
    if (!server_.Start(error)) return false;
    thread_ = std::thread([this] { server_.Run(); });
    PinThreads();
    return true;
  }
  int port() const { return server_.port(); }
  void Stop() {
    if (!thread_.joinable()) return;
    server_.RequestStop();
    thread_.join();
  }

 private:
  serve::Server server_;
  std::thread thread_;
};

struct PhaseResult {
  std::vector<double> latency_s;          // every checked response
  std::vector<double> observe_latency_s;  // observes only
  std::vector<double> late_s;
  int64_t sent = 0;
  std::vector<double> completed_s;  // arrivals before the phase deadline
  double elapsed_s = 0.0;  // closed loop: first send to last completion
};

// Sends requests and collects responses. The timing path only reads
// bytes and stamps arrival times; parsing and checking every response
// happens after the phase (Finish), so the generator's own JSON work
// never delays the next send or the next arrival stamp.
class Driver {
 public:
  Driver(Fleet* fleet, std::vector<std::unique_ptr<Connection>>* conns,
         Outcome* out, SpanLog* log)
      : fleet_(fleet), conns_(conns), out_(out), log_(log),
        pending_(conns->size()) {}

  size_t outstanding() const {
    size_t n = 0;
    for (const auto& q : pending_) n += q.size();
    return n;
  }

  // Builds `entity`'s next request ahead of its send time.
  struct Prepared {
    Pending pending;
    std::string line;
  };
  Prepared Prepare(int32_t entity) {
    Prepared p;
    p.line = fleet_->NextRequest(entity, next_id_++, &p.pending);
    return p;
  }

  // Writes the request at once, or only queues it when `flush` is false
  // (FlushAll then writes every connection's queue).
  void Send(Prepared request, double scheduled_s, PhaseResult* phase,
            bool flush = true) {
    Pending& p = request.pending;
    const auto c = static_cast<size_t>(fleet_->ConnectionOf(p.entity));
    Connection& conn = *(*conns_)[c];
    const int64_t t0 = NowNs();
    conn.Queue(request.line);
    if (flush && !conn.Flush()) out_->Fail("send failed");
    p.scheduled_s = scheduled_s;
    p.sent_s = static_cast<double>(NowNs()) * 1e-9;
    p.send_start_s = static_cast<double>(t0) * 1e-9;
    pending_[c].push_back(p);
    ++phase->sent;
    ++out_->attempted;
  }

  void FlushAll() {
    for (const auto& conn : *conns_) {
      if (!conn->Flush()) out_->Fail("send failed");
    }
  }

  // Waits up to `timeout_s` for responses and stamps their arrival.
  void Poll(double timeout_s, double deadline_s, PhaseResult* phase) {
    std::vector<pollfd> fds;
    for (const auto& conn : *conns_) {
      fds.push_back({conn->fd(),
                     static_cast<short>(POLLIN | (conn->has_output() ? POLLOUT : 0)),
                     0});
    }
    timespec ts{};
    const double t = std::max(0.0, timeout_s);
    ts.tv_sec = static_cast<time_t>(t);
    ts.tv_nsec = static_cast<long>((t - static_cast<double>(ts.tv_sec)) * 1e9);
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
    for (size_t c = 0; c < fds.size(); ++c) {
      Connection& conn = *(*conns_)[c];
      if (fds[c].revents & POLLOUT) conn.Flush();
      if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      std::vector<std::string> lines;
      const bool open = conn.Read(&lines);
      const double recv_s = static_cast<double>(NowNs()) * 1e-9;
      for (std::string& line : lines) {
        if (pending_[c].empty()) {
          out_->Fail("response without a request");
          continue;
        }
        received_.push_back({pending_[c].front(), std::move(line), recv_s});
        pending_[c].pop_front();
        if (recv_s <= deadline_s) phase->completed_s.push_back(recv_s);
      }
      if (!open) {
        out_->Fail("server closed the connection");
        pending_[c].clear();
      }
    }
  }

  // Counts every request still unanswered as failed, then checks every
  // response received in the phase against its request.
  void Finish(PhaseResult* phase) {
    for (auto& q : pending_) {
      for (size_t i = 0; i < q.size(); ++i) out_->Fail("no response in time");
      q.clear();
    }
    for (const Received& r : received_) {
      std::string why;
      const int64_t check0 = NowNs();
      if (!fleet_->CheckResponse(r.line, r.pending, &why)) {
        out_->Fail(why);
        continue;
      }
      const Pending& p = r.pending;
      const Timed timed{p.scheduled_s, p.sent_s, r.recv_s};
      phase->latency_s.push_back(timed.latency_s());
      if (!p.forecast) phase->observe_latency_s.push_back(timed.latency_s());
      phase->late_s.push_back(timed.late_s());
      if (log_ != nullptr) {
        const auto ns = [](double s) { return static_cast<int64_t>(s * 1e9); };
        const int32_t root = log_->Add("serve", "request", p.id, -1,
                                       ns(p.scheduled_s), ns(r.recv_s));
        log_->Add("loadgen", "send", p.id, root, ns(p.send_start_s),
                  ns(p.sent_s));
        log_->Add("loadgen", "check", p.id, -1, check0, NowNs());
      }
    }
    received_.clear();
  }

 private:
  struct Received {
    Pending pending;
    std::string line;
    double recv_s;
  };

  Fleet* fleet_;
  std::vector<std::unique_ptr<Connection>>* conns_;
  Outcome* out_;
  SpanLog* log_;
  std::vector<std::deque<Pending>> pending_;
  std::vector<Received> received_;
  int64_t next_id_ = 1;
};

// Open loop: each request is written at its scheduled instant whatever
// the state of earlier ones; latency counts from the schedule.
PhaseResult RunOpenLoop(Driver* driver, const std::vector<Arrival>& schedule) {
  PhaseResult phase;
  const double t0 = NowS();
  const double end_s = schedule.empty() ? 0.0 : schedule.back().at_s;
  const double give_up = t0 + end_s + 20.0;
  size_t next = 0;
  Driver::Prepared ready;
  if (!schedule.empty()) ready = driver->Prepare(schedule[0].entity);
  while (next < schedule.size() || driver->outstanding() > 0) {
    const double now = NowS();
    if (now > give_up) break;
    while (next < schedule.size() && t0 + schedule[next].at_s <= now) {
      driver->Send(std::move(ready), t0 + schedule[next].at_s, &phase);
      if (++next < schedule.size()) ready = driver->Prepare(schedule[next].entity);
    }
    // Busy-poll: a sleeping generator wakes late (milliseconds at the
    // 99th percentile on a shared VM), which would make it late to send
    // and late to stamp arrivals.
    driver->Poll(0.0, give_up, &phase);
  }
  driver->Finish(&phase);
  return phase;
}

// Closed loop in lockstep rounds: every connection is written one burst
// of kWindow requests, one per entity it carries, and the next round
// starts when every response of this one has arrived. A window refilled
// one response at a time let the server's batches, and the rate, settle
// into a different pattern from run to run; whole rounds arrive together
// and are served in batches of much the same make-up. The phase runs whole
// cycles of four rounds (three of observes, one of forecasts) for at
// least `duration_s`.
PhaseResult RunClosedLoop(Driver* driver, const Fleet& fleet,
                          double duration_s) {
  // First bring every entity to the start of its four-request cycle, so
  // every round is all observes or all forecasts instead of a mix set by
  // the arrival schedule.
  PhaseResult align;
  for (int32_t e = 0; e < fleet.entities(); ++e) {
    while (fleet.RequestsOf(e) % 4 != 0) {
      driver->Send(driver->Prepare(e), NowS(), &align);
    }
  }
  const double align_stop = NowS() + 20.0;
  while (driver->outstanding() > 0 && NowS() < align_stop) {
    driver->Poll(0.05, 0.0, &align);
  }
  driver->Finish(&align);

  PhaseResult phase;
  const double t0 = NowS();
  const double give_up = t0 + duration_s + 20.0;
  do {
    for (int round = 0; round < 4; ++round) {
      for (int32_t e = 0; e < fleet.entities(); ++e) {
        driver->Send(driver->Prepare(e), NowS(), &phase, /*flush=*/false);
      }
      driver->FlushAll();
      // Sleep in poll, unlike the open loop: the server is the bottleneck
      // here, and with the generator spinning beside it the rate varied
      // more from run to run.
      while (driver->outstanding() > 0 && NowS() < give_up) {
        driver->Poll(0.05, give_up, &phase);
      }
    }
  } while (NowS() < t0 + duration_s);
  if (!phase.completed_s.empty()) phase.elapsed_s = phase.completed_s.back() - t0;
  driver->Finish(&phase);
  return phase;
}

// Fills the session's pooled shapes: every entity observed a few times,
// then observe and forecast waves at every width, so the measured phases
// meet no first-time tensor shape.
void WarmUp(Fleet* fleet, serve::InferenceSession* session, int32_t widest) {
  for (int r = 0; r < kWarmRounds; ++r) {
    std::vector<serve::Observation> wave;
    for (int32_t e = 0; e < fleet->entities(); ++e) {
      wave.push_back(fleet->TakeObservation(e));
    }
    session->Observe(wave);
  }
  tgcrn::Tensor out;
  std::vector<int64_t> steps;
  for (int32_t width = 1; width <= widest; ++width) {
    std::vector<serve::Observation> wave;
    std::vector<std::string> names;
    for (int32_t e = 0; e < width; ++e) {
      wave.push_back(fleet->TakeObservation(e));
      names.push_back(wave.back().entity);
    }
    session->Observe(wave);
    session->Forecast(names, &out, &steps);
  }
}

// Everything serve-fleet sets up: the metro series the entity streams are
// cut from, the model, its session, the warmed fleet and the server.
struct ServeSetup {
  data::SpatioTemporalData series;
  data::StandardScaler scaler;
  std::unique_ptr<core::TGCRN> model;
  std::unique_ptr<serve::InferenceSession> session;
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<LiveServer> server;
};

bool BuildServeSetup(uint64_t seed, ServeSetup* s, std::string* error) {
  const TrainSpec& spec = MetroSpec();
  tgcrn::datagen::MetroSimConfig sim;
  sim.num_stations = spec.nodes;
  sim.num_days = spec.days;
  sim.steps_per_day = spec.steps_per_day;
  sim.seed = 1000 + seed;
  sim.keep_od_ground_truth = false;
  s->series = tgcrn::datagen::SimulateMetro(sim).data;
  s->scaler.Fit(s->series.values, s->series.num_steps() * 7 / 10);
  s->model = MakeModel(spec, seed);
  s->session = std::make_unique<serve::InferenceSession>(
      s->model.get(), s->scaler, serve::SessionConfig{});
  s->fleet = std::make_unique<Fleet>(&s->series, kEntities, kConnections,
                                     spec.output_steps);
  WarmUp(s->fleet.get(), s->session.get(), kEntities);
  s->server = std::make_unique<LiveServer>(s->session.get());
  return s->server->Start(error);
}

bool Connect(int port, std::vector<std::unique_ptr<Connection>>* conns,
             int count, Outcome* out) {
  for (int c = 0; c < count; ++c) {
    conns->push_back(std::make_unique<Connection>());
    std::string error;
    if (!conns->back()->Connect(port, &error)) {
      out->Fail("connect: " + error);
      return false;
    }
  }
  return true;
}

void VerifyAgainstReference(const ServeSetup& s, uint64_t seed, Outcome* out) {
  auto model = MakeModel(MetroSpec(), seed);
  serve::InferenceSession reference(model.get(), s.scaler,
                                    serve::SessionConfig{});
  const int64_t mismatches = s.fleet->VerifyForecasts(&reference);
  for (int64_t i = 0; i < mismatches; ++i) {
    out->Fail("forecast differs from the in-process session");
  }
  out->notes.push_back(std::to_string(s.fleet->forecasts_kept()) +
                       " forecasts compared bit for bit with an in-process "
                       "session, " + std::to_string(mismatches) +
                       " mismatches");
}

}  // namespace

void RunServeWorkload(const Options& options, Outcome* out) {
  std::vector<double> setup_s;
  ServeSetup s;
  const int setup_reps = options.trace ? 1 : 5;
  for (int i = 0; i < setup_reps; ++i) {
    // Tear down in reverse order of construction: the server borrows the
    // session, the session borrows the model.
    s.server.reset();
    s.fleet.reset();
    s.session.reset();
    s.model.reset();
    const int64_t t0 = NowNs();
    std::string error;
    if (!BuildServeSetup(options.seed, &s, &error)) {
      out->Fail("server start: " + error);
      return;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  std::vector<std::unique_ptr<Connection>> conns;
  if (!Connect(s.server->port(), &conns, kConnections, out)) return;
  auto* allocations =
      tgcrn::obs::Registry::Global().GetCounter("tensor.allocations");
  const int64_t allocs0 = allocations->Value();

  // The two phases alternate in kSegments segments, so both figures sample
  // the whole run rather than one stretch of it: the speed of a shared
  // host drifts over seconds. The closed-loop rate is the more sensitive
  // figure (its forecast rounds are mostly JSON formatting on one
  // thread), so it gets half the time.
  const double open_s = 0.5 * options.seconds;
  const double closed_s = options.seconds - open_s;
  Driver driver(s.fleet.get(), &conns, out, nullptr);
  if (!options.trace) {
    PhaseResult open;
    int64_t closed_sent = 0, closed_ok = 0, closed_done = 0;
    double closed_time_s = 0.0;
    for (int k = 0; k < kSegments; ++k) {
      const PhaseResult segment = RunOpenLoop(
          &driver, PoissonSchedule(options.seed * kSegments + k, kOpenLoopRate,
                                   open_s / kSegments, kEntities));
      open.sent += segment.sent;
      open.latency_s.insert(open.latency_s.end(), segment.latency_s.begin(),
                            segment.latency_s.end());
      const PhaseResult closed =
          RunClosedLoop(&driver, *s.fleet, closed_s / kSegments);
      closed_done += static_cast<int64_t>(closed.completed_s.size());
      closed_time_s += closed.elapsed_s;
      closed_sent += closed.sent;
      closed_ok += static_cast<int64_t>(closed.latency_s.size());
    }
    out->notes.push_back("open loop: " + std::to_string(open.sent) +
                         " sent at " + std::to_string(kOpenLoopRate) + "/s, " +
                         std::to_string(open.latency_s.size()) + " ok");
    out->notes.push_back("closed loop: " + std::to_string(closed_sent) +
                         " sent, " + std::to_string(closed_ok) +
                         " ok, rounds of " + std::to_string(kWindow) +
                         " per connection");
    const int64_t allocs = allocations->Value() - allocs0;
    if (allocs != 0) {
      out->Fail(std::to_string(allocs) +
                " tensor heap allocations in the measured phases (must be 0)");
    }
    s.server->Stop();
    VerifyAgainstReference(s, options.seed, out);
    const auto n = static_cast<int64_t>(open.latency_s.size());
    out->Put("setup_s", Median(setup_s), "s", setup_reps);
    out->Put("peak_rss_mb", PeakRssMb(), "MB", 1);
    out->Put("p50_ms", Median(open.latency_s) * 1e3, "ms", n);
    out->notes.push_back("open-loop p99 " +
                         std::to_string(Quantile(open.latency_s, 0.99) * 1e3) +
                         " ms over " + std::to_string(n) +
                         " samples (reported, not gated: see README)");
    out->Put("throughput_per_s",
             static_cast<double>(closed_done) / closed_time_s, "1/s",
             closed_done);
    return;
  }

  // Traced run: an open-loop phase without spans, then a second one with
  // spans per request (the request id is the wire "id").
  const PhaseResult open = RunOpenLoop(
      &driver, PoissonSchedule(options.seed, kOpenLoopRate, open_s, kEntities));
  SpanLog log;
  Driver traced_driver(s.fleet.get(), &conns, out, &log);
  const PhaseResult traced = RunOpenLoop(
      &traced_driver,
      PoissonSchedule(options.seed + 1, kOpenLoopRate, open_s, kEntities));
  s.server->Stop();
  VerifyAgainstReference(s, options.seed, out);
  out->Put("trace.overhead_share",
           Median(traced.latency_s) / Median(open.latency_s) - 1.0, "ratio",
           static_cast<int64_t>(traced.latency_s.size()));
  PutOpenLoopLayerMetrics(traced.latency_s, traced.late_s, out);

  const TrainSpec& spec = MetroSpec();
  auto dataset = MakeDataset(spec, options.seed);
  auto model = MakeModel(spec, options.seed);
  const TracedTraining training = TracedTrainAndEvaluate(
      model.get(), *dataset, MakeTrainConfig(spec, options.seed, options.threads),
      &log);
  PutTrainingLayerMetrics(training, log, out);
  RunLayerProbes(spec, options.seed, out);
  RunServeProbes(spec, options.seed, 256, out, nullptr, nullptr, &log);
  PutSelfTimes(log, out);
  if (!options.trace_path.empty() && !log.WriteJsonl(options.trace_path)) {
    out->Fail("cannot write " + options.trace_path);
  }
}

void PutOpenLoopLayerMetrics(const std::vector<double>& latency_s,
                             const std::vector<double>& late_s, Outcome* out) {
  out->Put("loadgen.latency_p99_ms", Quantile(latency_s, 0.99) * 1e3, "ms",
           static_cast<int64_t>(latency_s.size()));
  out->Put("loadgen.late_p99_ms", Quantile(late_s, 0.99) * 1e3, "ms",
           static_cast<int64_t>(late_s.size()));
}

void RunServeProbes(const TrainSpec& spec, uint64_t seed, int64_t requests,
                    Outcome* out, std::vector<double>* latency_s,
                    std::vector<double>* late_s, SpanLog* log) {
  const core::TGCRNConfig mc = ModelConfig(spec);
  const int32_t entities = spec.nodes > 64 ? 8 : kEntities;
  // Synthetic per-entity series in the metro value range.
  tgcrn::Rng rng(4000 + seed);
  data::SpatioTemporalData series;
  series.steps_per_day = spec.steps_per_day;
  series.values = tgcrn::Tensor({64, spec.nodes, mc.input_dim});
  for (int64_t i = 0; i < series.values.numel(); ++i) {
    series.values.mutable_data()[i] = static_cast<float>(40.0 + 20.0 * rng.NextDouble());
  }
  for (int64_t t = 0; t < 64; ++t) series.slot_of_day.push_back(t % spec.steps_per_day);
  series.day_of_week.assign(64, 0);
  data::StandardScaler scaler;
  scaler.Fit(series.values, 64);
  auto model = MakeModel(spec, seed);
  serve::SessionConfig config;
  serve::InferenceSession session(model.get(), scaler, config);
  Fleet fleet(&series, entities, 1, spec.output_steps);
  WarmUp(&fleet, &session,
         std::min<int32_t>(entities, static_cast<int32_t>(config.batch_max)));

  // (a) The serving traffic replayed in-process, round by round on a
  // virtual clock (each round serves every request due, then the clock
  // advances by the round's service time): per-call session times, wave
  // widths and the kernel's share of wave time.
  std::vector<Arrival> schedule;
  for (double span_s = 1.0; static_cast<int64_t>(schedule.size()) < requests;
       span_s *= 2.0) {
    schedule = PoissonSchedule(seed + 7, kOpenLoopRate, span_s, entities);
  }
  std::vector<double> observe_s, forecast_s;
  double width_sum = 0.0, waves = 0.0, kernel_ns = 0.0, wave_ns = 0.0;
  auto add_waves = [&](const std::vector<serve::WaveTiming>& timings) {
    for (const serve::WaveTiming& w : timings) {
      width_sum += static_cast<double>(w.active);
      waves += 1.0;
      kernel_ns += static_cast<double>(w.kernel_end_ns - w.gather_end_ns);
      wave_ns += static_cast<double>(w.scatter_end_ns - w.start_ns);
    }
  };
  int64_t issued = 0;  // every 4th request of the replay is a forecast
  double clock = 0.0;
  tgcrn::Tensor forecast;
  std::vector<int64_t> steps;
  for (size_t next = 0; next < static_cast<size_t>(requests);) {
    if (schedule[next].at_s > clock) clock = schedule[next].at_s;
    std::vector<serve::Observation> observes;
    std::vector<std::string> names;
    for (; next < static_cast<size_t>(requests) && schedule[next].at_s <= clock; ++next) {
      const int32_t e = schedule[next].entity;
      if (++issued % 4 == 0) {
        names.push_back(EntityName(e));
      } else {
        observes.push_back(fleet.TakeObservation(e));
      }
    }
    const int64_t t0 = NowNs();
    if (!observes.empty()) {
      ScopedSpan span(log, "serve", "observe");
      const int64_t c0 = NowNs();
      session.Observe(observes);
      observe_s.push_back(static_cast<double>(NowNs() - c0) * 1e-9);
      add_waves(session.wave_timings());
    }
    if (!names.empty()) {
      ScopedSpan span(log, "serve", "forecast");
      const int64_t c0 = NowNs();
      session.Forecast(names, &forecast, &steps);
      forecast_s.push_back(static_cast<double>(NowNs() - c0) * 1e-9);
      add_waves(session.wave_timings());
    }
    clock += static_cast<double>(NowNs() - t0) * 1e-9;
  }
  out->Put("serve.observe_us", Median(observe_s) * 1e6, "us",
           static_cast<int64_t>(observe_s.size()));
  out->Put("serve.forecast_us", Median(forecast_s) * 1e6, "us",
           static_cast<int64_t>(forecast_s.size()));
  out->Put("serve.wave_width_mean", width_sum / std::max(waves, 1.0), "count",
           static_cast<int64_t>(waves));
  out->Put("serve.kernel_share", kernel_ns / std::max(wave_ns, 1.0), "ratio",
           static_cast<int64_t>(waves));

  // (b) The step API without gradients at width 1 and at the widest wave
  // this probe's fleet produces (batch_max on the metro shape).
  {
    tgcrn::ag::NoGradGuard no_grad;
    const int64_t widest = std::min<int64_t>(entities, config.batch_max);
    for (const int64_t width : {int64_t{1}, widest}) {
      tgcrn::Tensor x({width, spec.nodes, mc.input_dim});
      for (int64_t i = 0; i < x.numel(); ++i) {
        x.mutable_data()[i] = static_cast<float>(rng.NextDouble() - 0.5);
      }
      const tgcrn::ag::Variable xv(x);
      const std::vector<int64_t> slots(static_cast<size_t>(width), 5);
      const std::vector<std::vector<int64_t>> y_slots(
          static_cast<size_t>(width), std::vector<int64_t>(static_cast<size_t>(mc.horizon), 6));
      core::TGCRNState state = model->InitState(width);
      int64_t reps = 0;
      const double enc = MedianSeconds(
          [&] { model->EncoderStep(xv, slots, &state); }, 1, 0.3, &reps);
      const std::string suffix = width == 1 ? "w1" : "wmax";
      out->Put("core.encoder_step_" + suffix + "_us", enc * 1e6, "us", reps);
      const double dec = MedianSeconds(
          [&] {
            core::TGCRNState copy = state;
            model->DecoderForecast(&copy, y_slots);
          },
          1, 0.3, &reps);
      out->Put("core.decoder_forecast_" + suffix + "_us", dec * 1e6, "us", reps);
    }
  }

  // (c) Idle TCP overhead: single observes one at a time over one
  // connection, against the same call made in-process at the same spacing
  // (an idle pool wakes slower than a busy one, so both sides idle alike).
  int64_t reps = 0;
  const int32_t probe_entity = 0;
  const double hot = MedianSeconds(
      [&] { session.Observe({fleet.TakeObservation(probe_entity)}); }, 3, 0.1,
      &reps);
  const double spacing = std::max(0.002, 2.0 * hot);
  const int64_t count = std::max<int64_t>(8, requests / 4);
  std::vector<double> idle_s;
  for (int64_t i = 0; i < count; ++i) {
    const int64_t due = NowNs() + static_cast<int64_t>(spacing * 1e9);
    while (NowNs() < due) std::this_thread::sleep_for(std::chrono::microseconds(100));
    const int64_t t0 = NowNs();
    session.Observe({fleet.TakeObservation(probe_entity)});
    idle_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  const double in_process = Median(idle_s);
  LiveServer server(&session);
  std::string error;
  std::vector<std::unique_ptr<Connection>> conns;
  if (!server.Start(&error)) {
    out->Fail("probe server start: " + error);
    return;
  }
  if (!Connect(server.port(), &conns, 1, out)) return;
  Driver driver(&fleet, &conns, out, log);
  // Spaced so each request is answered before the next is due.
  std::vector<Arrival> schedule_tcp;
  for (int64_t i = 0; i < count; ++i) {
    schedule_tcp.push_back({0.001 + spacing * static_cast<double>(i), probe_entity});
  }
  const PhaseResult tcp = RunOpenLoop(&driver, schedule_tcp);
  server.Stop();
  out->Put("serve.server_overhead_us",
           (Median(tcp.observe_latency_s) - in_process) * 1e6, "us",
           static_cast<int64_t>(tcp.observe_latency_s.size()));
  if (latency_s != nullptr) *latency_s = tcp.latency_s;
  if (late_s != nullptr) *late_s = tcp.late_s;
}

}  // namespace perfbench
