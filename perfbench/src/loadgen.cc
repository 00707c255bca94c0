#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

#include "obs/json.h"

namespace perfbench {

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::Connect(int port, std::string* error) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
  return true;
}

bool Connection::Flush() {
  while (out_off_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_,
                             MSG_NOSIGNAL);
    if (n > 0) {
      out_off_ += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  if (out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
  }
  return true;
}

bool Connection::Read(std::vector<std::string>* lines) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      in_.append(buf, static_cast<size_t>(n));
      // ACK at once (Linux clears quick-ACK mode on its own). The server
      // does not disable Nagle on its sockets, so a delayed ACK here would
      // hold its next response back by the delayed-ACK timer (~40 ms).
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF or error
  }
  size_t start = 0;
  for (size_t nl; (nl = in_.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    lines->push_back(in_.substr(start, nl - start));
  }
  in_.erase(0, start);
  return true;
}

std::string EntityName(int32_t entity) {
  char name[16];
  std::snprintf(name, sizeof(name), "e%d", entity);
  return name;
}

Fleet::Fleet(const tgcrn::data::SpatioTemporalData* series, int32_t entities,
             int32_t connections, int64_t horizon)
    : series_(series),
      connections_(connections),
      horizon_(horizon),
      steps_(static_cast<size_t>(entities), 0),
      requests_(static_cast<size_t>(entities), 0) {}

tgcrn::serve::Observation Fleet::ObservationAt(int32_t entity,
                                               int64_t pos) const {
  // Entities read the same simulated city from staggered start times.
  const int64_t t = (static_cast<int64_t>(entity) * 131 + pos) %
                    series_->num_steps();
  const int64_t width = series_->num_nodes() * series_->num_features();
  tgcrn::serve::Observation ob;
  ob.entity = EntityName(entity);
  ob.slot = series_->slot_of_day[static_cast<size_t>(t)];
  const float* row = series_->values.data() + t * width;
  ob.values.assign(row, row + width);
  return ob;
}

tgcrn::serve::Observation Fleet::TakeObservation(int32_t entity) {
  return ObservationAt(entity, steps_[static_cast<size_t>(entity)]++);
}

std::string Fleet::NextRequest(int32_t entity, int64_t id, Pending* pending) {
  const auto e = static_cast<size_t>(entity);
  pending->id = id;
  pending->entity = entity;
  pending->forecast = (++requests_[e]) % 4 == 0;
  char head[96];
  if (pending->forecast) {
    pending->expect_steps = steps_[e];
    std::snprintf(head, sizeof(head),
                  "{\"op\":\"forecast\",\"id\":%lld,\"entity\":\"e%d\"}\n",
                  static_cast<long long>(id), entity);
    return head;
  }
  const tgcrn::serve::Observation ob = TakeObservation(entity);
  pending->expect_steps = steps_[e];
  std::snprintf(head, sizeof(head),
                "{\"op\":\"observe\",\"id\":%lld,\"entity\":\"e%d\","
                "\"slot\":%lld,\"values\":[",
                static_cast<long long>(id), entity,
                static_cast<long long>(ob.slot));
  std::string line = head;
  char num[32];
  for (size_t i = 0; i < ob.values.size(); ++i) {
    // %.9g round-trips every float exactly.
    std::snprintf(num, sizeof(num), i == 0 ? "%.9g" : ",%.9g",
                  static_cast<double>(ob.values[i]));
    line += num;
  }
  line += "]}\n";
  return line;
}

bool Fleet::CheckResponse(const std::string& line, const Pending& pending,
                          std::string* why) {
  tgcrn::obs::Json r;
  std::string error;
  if (!tgcrn::obs::Json::Parse(line, &r, &error)) {
    *why = "unparseable response: " + error;
    return false;
  }
  if (!r.is_object() || !r["ok"].is_bool() || !r["ok"].AsBool()) {
    *why = "response not ok: " + line.substr(0, 200);
    return false;
  }
  if (r.GetInt("id", -1) != pending.id) {
    *why = "response id " + std::to_string(r.GetInt("id", -1)) +
           " out of order, expected " + std::to_string(pending.id);
    return false;
  }
  if (r.GetString("op") != (pending.forecast ? "forecast" : "observe") ||
      r.GetInt("steps", -1) != pending.expect_steps) {
    *why = "wrong op or step count: " + line.substr(0, 200);
    return false;
  }
  if (!pending.forecast) return true;
  const int64_t nodes = series_->num_nodes();
  const int64_t dims = series_->num_features();
  const tgcrn::obs::Json& grid = r["forecast"];
  ForecastRecord record;
  record.entity = pending.entity;
  record.steps = pending.expect_steps;
  record.values.reserve(static_cast<size_t>(horizon_ * nodes * dims));
  bool shape_ok = grid.is_array() && static_cast<int64_t>(grid.size()) == horizon_;
  for (int64_t q = 0; shape_ok && q < horizon_; ++q) {
    const tgcrn::obs::Json& rows = grid.at(static_cast<size_t>(q));
    shape_ok = rows.is_array() && static_cast<int64_t>(rows.size()) == nodes;
    for (int64_t n = 0; shape_ok && n < nodes; ++n) {
      const tgcrn::obs::Json& feats = rows.at(static_cast<size_t>(n));
      shape_ok = feats.is_array() && static_cast<int64_t>(feats.size()) == dims;
      for (int64_t f = 0; shape_ok && f < dims; ++f) {
        const tgcrn::obs::Json& v = feats.at(static_cast<size_t>(f));
        shape_ok = v.is_number() && std::isfinite(v.AsDouble());
        if (shape_ok) record.values.push_back(static_cast<float>(v.AsDouble()));
      }
    }
  }
  if (!shape_ok) {
    *why = "forecast is not a finite Q x N x d grid";
    return false;
  }
  forecasts_.push_back(std::move(record));
  return true;
}

int64_t Fleet::VerifyForecasts(tgcrn::serve::InferenceSession* reference) const {
  // Lockstep replay: at each stream position every entity that reached it
  // observes once (batch composition does not change a sample's bits),
  // then the kept forecasts taken at that step count are recomputed.
  std::map<int64_t, std::vector<const ForecastRecord*>> by_steps;
  for (const ForecastRecord& f : forecasts_) by_steps[f.steps].push_back(&f);
  const int64_t longest = *std::max_element(steps_.begin(), steps_.end());
  int64_t mismatches = 0;
  tgcrn::Tensor out;
  std::vector<int64_t> steps;
  for (int64_t pos = 0; pos < longest; ++pos) {
    std::vector<tgcrn::serve::Observation> wave;
    for (int32_t e = 0; e < entities(); ++e) {
      if (steps_[static_cast<size_t>(e)] > pos) wave.push_back(ObservationAt(e, pos));
    }
    reference->Observe(wave);
    const auto it = by_steps.find(pos + 1);
    if (it == by_steps.end()) continue;
    std::vector<std::string> names;
    for (const ForecastRecord* f : it->second) {
      names.push_back(EntityName(f->entity));
    }
    reference->Forecast(names, &out, &steps);
    const auto row = static_cast<size_t>(out.numel() / out.size(0));
    for (size_t i = 0; i < it->second.size(); ++i) {
      const std::vector<float>& got = it->second[i]->values;
      if (got.size() != row ||
          std::memcmp(got.data(), out.data() + i * row, row * sizeof(float)) != 0) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

}  // namespace perfbench
