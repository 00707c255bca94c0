// The serving load generator: non-blocking NDJSON connections to a
// serve::Server and the per-entity request streams it sends over them.
// Entities are pinned to one connection each, so a connection's FIFO
// order is each of its entities' request order, which the server
// preserves.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "serve/session.h"

namespace perfbench {

class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Connect(int port, std::string* error);
  int fd() const { return fd_; }
  // Appends a request line to the output buffer.
  void Queue(const std::string& line) { out_ += line; }
  // Writes what the socket accepts; false on a socket error.
  bool Flush();
  bool has_output() const { return out_off_ < out_.size(); }
  // Reads what is available and appends every complete line to *lines;
  // false on EOF or a socket error.
  bool Read(std::vector<std::string>* lines);

 private:
  int fd_ = -1;
  std::string out_;
  size_t out_off_ = 0;
  std::string in_;
};

// The wire name of an entity: "e<index>".
std::string EntityName(int32_t entity);

// One request in flight.
struct Pending {
  int64_t id = 0;
  int32_t entity = 0;
  bool forecast = false;
  int64_t expect_steps = 0;  // entity steps the response must report
  double scheduled_s = 0.0;
  double send_start_s = 0.0;  // when the write began
  double sent_s = 0.0;
};

// A forecast as received, kept for the bitwise reference check.
struct ForecastRecord {
  int32_t entity = 0;
  int64_t steps = 0;
  std::vector<float> values;  // [Q, N, d]
};

// Per-entity observation streams cut from metro-simulator series, and the
// request bookkeeping that checks every response.
class Fleet {
 public:
  Fleet(const tgcrn::data::SpatioTemporalData* series, int32_t entities,
        int32_t connections, int64_t horizon);

  int32_t entities() const { return static_cast<int32_t>(steps_.size()); }
  int32_t ConnectionOf(int32_t entity) const { return entity % connections_; }
  // Requests built so far for `entity`; the next is a forecast when this
  // is 3 modulo 4.
  int64_t RequestsOf(int32_t entity) const {
    return requests_[static_cast<size_t>(entity)];
  }
  // The observation at stream position `pos` of `entity`.
  tgcrn::serve::Observation ObservationAt(int32_t entity, int64_t pos) const;
  // Advances `entity`'s stream by one observation (in-process warm-up).
  tgcrn::serve::Observation TakeObservation(int32_t entity);
  // Builds the next request line of `entity` (every 4th is a forecast)
  // and fills the bookkeeping for its response.
  std::string NextRequest(int32_t entity, int64_t id, Pending* pending);
  // Parses and checks one response line against its request: valid JSON,
  // "ok": true, the echoed id, the expected step count and, for a
  // forecast, a finite Q x N x d grid (kept for the reference check).
  bool CheckResponse(const std::string& line, const Pending& pending,
                     std::string* why);

  // Replays every entity's stream into a fresh in-process session and
  // compares each kept forecast bit for bit. Returns the mismatch count.
  int64_t VerifyForecasts(tgcrn::serve::InferenceSession* reference) const;
  size_t forecasts_kept() const { return forecasts_.size(); }

 private:
  const tgcrn::data::SpatioTemporalData* series_;
  int32_t connections_;
  int64_t horizon_;
  std::vector<int64_t> steps_;     // observations taken per entity
  std::vector<int64_t> requests_;  // requests sent per entity
  std::vector<ForecastRecord> forecasts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
