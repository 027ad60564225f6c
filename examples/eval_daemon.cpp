// eval_daemon: the evaluation service as a line-delimited JSON daemon over
// stdin/stdout.  Each input line is one request against the paper's
// case-study scenario; each output line is one reply with the metric payload
// and per-request diagnostics (cache source, queue wait, solve time).
//
// Request lines:
//   {"id": 1, "kind": "steady", "design": [1, 2, 2, 1], "cadence": 720}
//   {"id": 2, "kind": "transient", "design": [1, 2, 2, 1], "wave": {"WEB": 1}}
//   {"cmd": "stats"}      -> one stats line
//   {"cmd": "shutdown"}   -> drain, final stats, exit (EOF does the same)
//
// Fields: "design" is [DNS, WEB, APP, DB] replica counts (defaults to the
// paper's example network), "cadence" is the patch interval in hours (0 or
// absent = the scenario's schedule), "wave" maps role names to servers down
// at t = 0 (transient only; absent = all up).  Every count must be a whole
// number in [0, UINT_MAX]; any other value gets an error reply.  Replies
// preserve request ids and arrive in submit order.
//
// Reply lines:
//   {"id": 1, "ok": true, "coa": 0.997069, "asp_before": 1.0, "asp_after": 0.3,
//    "source": "solve", "queue_wait_ms": 0.011, "solve_ms": 2.41,
//    "batch_width": 1, "key": "0x9a..."}
//
// A request that fails replies {"id": ..., "ok": false, "error": "..."} in
// its submit-order slot; the id is echoed whenever the line parsed as an
// object carrying one.
//
// `--demo` feeds the daemon a small scripted request mix instead of stdin
// (the CI smoke mode — exercises solve, cache hit, transient batching and
// error replies) and exits nonzero unless every emitted line parses as JSON,
// the reply ids come back in submit order, and exactly the bad requests
// reply "ok": false.

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <deque>
#include <exception>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "patchsec/enterprise/design.hpp"
#include "patchsec/service/eval_service.hpp"

namespace {

using namespace patchsec;

// --- minimal JSON value + recursive-descent parser --------------------------
// The daemon's whole input grammar is flat objects of numbers, strings,
// arrays and one level of nested objects, so a ~100-line parser beats a
// dependency (the container pulls in none).

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] const JsonValue* find(const std::string& k) const {
    const auto it = object.find(k);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing characters after JSON value");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }
  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end of JSON");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) throw std::runtime_error(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool consume(char c) {
    if (pos_ < text_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue value() {
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null();
    return number();
  }
  JsonValue object() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    expect('{');
    if (consume('}')) return v;
    do {
      JsonValue key = string_value();
      expect(':');
      v.object.emplace(std::move(key.string), value());
    } while (consume(','));
    expect('}');
    return v;
  }
  JsonValue array() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    expect('[');
    if (consume(']')) return v;
    do {
      v.array.push_back(value());
    } while (consume(','));
    expect(']');
    return v;
  }
  JsonValue string_value() {
    JsonValue v;
    v.type = JsonValue::Type::kString;
    expect('"');
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) throw std::runtime_error("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'u': c = ascii_escape(); break;
          default: throw std::runtime_error("unsupported escape");
        }
      }
      v.string.push_back(c);
    }
    expect('"');
    return v;
  }
  // The four hex digits after "\u"; only ASCII code points are supported
  // (json_escape emits \u only for control characters).
  char ascii_escape() {
    if (pos_ + 4 > text_.size()) throw std::runtime_error("unterminated escape");
    const std::string hex(text_.substr(pos_, 4));
    pos_ += 4;
    if (hex.find_first_not_of("0123456789abcdefABCDEF") != std::string::npos) {
      throw std::runtime_error("bad \\u escape");
    }
    const unsigned long code = std::stoul(hex, nullptr, 16);
    if (code >= 0x80) throw std::runtime_error("unsupported escape");
    return static_cast<char>(code);
  }
  JsonValue boolean() {
    JsonValue v;
    v.type = JsonValue::Type::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
    } else {
      throw std::runtime_error("bad literal");
    }
    return v;
  }
  JsonValue null() {
    if (text_.compare(pos_, 4, "null") != 0) throw std::runtime_error("bad literal");
    pos_ += 4;
    return {};
  }
  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    try {
      v.number = std::stod(std::string(text_.substr(start, pos_ - start)));
    } catch (const std::exception&) {
      throw std::runtime_error("bad number");
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// --- request decoding -------------------------------------------------------

// The "id" of a parsed line when it is a number a long long can hold.
std::optional<long long> id_of(const JsonValue& json) {
  const JsonValue* id = json.find("id");
  if (id == nullptr || id->type != JsonValue::Type::kNumber) return std::nullopt;
  if (!(std::abs(id->number) < 9e18)) return std::nullopt;
  return static_cast<long long>(id->number);
}

std::optional<enterprise::ServerRole> role_from_name(const std::string& name) {
  for (unsigned i = 0; i < enterprise::kRoleCount; ++i) {
    const auto role = static_cast<enterprise::ServerRole>(i);
    if (name == enterprise::to_string(role)) return role;
  }
  return std::nullopt;
}

// A server count: a JSON number that is a whole value in [0, UINT_MAX].
// Anything else is refused, never cast (a negative or out-of-range cast
// would name a different design or wave, or be undefined).
unsigned count_of(const JsonValue& value, const std::string& what) {
  const double x = value.number;
  if (value.type != JsonValue::Type::kNumber || !std::isfinite(x) || x < 0.0 ||
      x != std::floor(x) || x > static_cast<double>(std::numeric_limits<unsigned>::max())) {
    throw std::runtime_error(what + " must be a whole number of servers in [0, " +
                             std::to_string(std::numeric_limits<unsigned>::max()) + "]");
  }
  return static_cast<unsigned>(x);
}

service::EvalRequest decode_request(const JsonValue& json) {
  service::EvalRequest request;
  request.design = enterprise::example_network_design();
  if (const JsonValue* design = json.find("design")) {
    if (design->array.size() != enterprise::kRoleCount) {
      throw std::runtime_error("design must be [DNS, WEB, APP, DB] counts");
    }
    for (std::size_t i = 0; i < enterprise::kRoleCount; ++i) {
      request.design.counts[i] = count_of(design->array[i], "design count");
    }
  }
  if (const JsonValue* cadence = json.find("cadence")) {
    request.patch_interval_hours = cadence->number;
  }
  if (const JsonValue* kind = json.find("kind")) {
    if (kind->string == "steady") {
      request.kind = service::RequestKind::kSteady;
    } else if (kind->string == "transient") {
      request.kind = service::RequestKind::kTransient;
    } else {
      throw std::runtime_error("kind must be \"steady\" or \"transient\"");
    }
  }
  if (const JsonValue* wave = json.find("wave")) {
    for (const auto& [name, count] : wave->object) {
      const std::optional<enterprise::ServerRole> role = role_from_name(name);
      if (!role) throw std::runtime_error("unknown role in wave: " + name);
      request.wave[*role] = count_of(count, "wave count for " + name);
    }
  }
  return request;
}

// --- reply / stats emission -------------------------------------------------

// `text` as the body of a JSON string literal.
std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string error_line(std::optional<long long> id, std::string_view message) {
  std::string out = "{";
  if (id) out += "\"id\": " + std::to_string(*id) + ", ";
  return out + "\"ok\": false, \"error\": \"" + json_escape(message) + "\"}";
}

std::string reply_line(long long id, const service::ServiceReply& reply) {
  std::ostringstream out;
  out.precision(12);
  out << "{\"id\": " << id << ", \"ok\": true"
      << ", \"coa\": " << reply.report.coa
      << ", \"asp_before\": " << reply.report.before_patch.attack_success_probability
      << ", \"asp_after\": " << reply.report.after_patch.attack_success_probability
      << ", \"source\": \"" << service::to_string(reply.source) << '"'
      << ", \"queue_wait_ms\": " << reply.queue_wait_seconds * 1e3
      << ", \"solve_ms\": " << reply.solve_seconds * 1e3
      << ", \"batch_width\": " << reply.batch_width << ", \"key\": \"0x" << std::hex << reply.key
      << "\"}";
  return out.str();
}

std::string stats_line(const service::ServiceStats& stats) {
  std::ostringstream out;
  out.precision(6);
  out << "{\"stats\": {\"submitted\": " << stats.submitted << ", \"solves\": " << stats.solves
      << ", \"coalesced\": " << stats.coalesced << ", \"batches\": " << stats.batches
      << ", \"cache_hits\": " << stats.cache.hits << ", \"cache_misses\": " << stats.cache.misses
      << ", \"cache_hit_rate\": " << stats.cache.hit_rate()
      << ", \"cache_entries\": " << stats.cache.entries
      << ", \"cache_bytes\": " << stats.cache.bytes
      << ", \"cache_evictions\": " << stats.cache.evictions << "}}";
  return out.str();
}

// A reply that fails with `message` once it reaches the front of the queue.
std::future<service::ServiceReply> failed_reply(const std::string& message) {
  std::promise<service::ServiceReply> promise;
  promise.set_exception(std::make_exception_ptr(std::runtime_error(message)));
  return promise.get_future();
}

int run(std::istream& in, std::ostream& out, bool echo_input) {
  service::ServiceOptions options;
  options.workers = 2;
  service::EvalService daemon(core::Scenario::paper_case_study(), options);

  // Replies and errors alike leave in submit order; an error echoes the id
  // of its line when the line parsed as an object carrying one.
  std::deque<std::pair<std::optional<long long>, std::future<service::ServiceReply>>> pending;
  const auto drain = [&](bool all) {
    while (!pending.empty() &&
           (all || pending.front().second.wait_for(std::chrono::seconds(0)) ==
                       std::future_status::ready)) {
      auto& [id, future] = pending.front();
      try {
        const service::ServiceReply reply = future.get();
        out << reply_line(*id, reply) << '\n';
      } catch (const std::exception& e) {
        out << error_line(id, e.what()) << '\n';
      }
      pending.pop_front();
    }
  };

  std::string line;
  long long next_id = 0;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (echo_input) out << "> " << line << '\n';
    std::optional<long long> request_id;
    try {
      const JsonValue json = JsonParser(line).parse();
      request_id = id_of(json);
      if (const JsonValue* cmd = json.find("cmd")) {
        drain(true);
        if (cmd->string == "stats") {
          out << stats_line(daemon.stats()) << '\n';
          continue;
        }
        if (cmd->string == "shutdown") break;
        throw std::runtime_error("unknown cmd: " + cmd->string);
      }
      service::EvalRequest request = decode_request(json);
      if (!request_id) request_id = ++next_id;
      pending.emplace_back(request_id, daemon.submit(std::move(request)));
    } catch (const std::exception& e) {
      pending.emplace_back(request_id, failed_reply(e.what()));
    }
    drain(false);  // emit whatever has completed, in submit order
  }
  drain(true);
  daemon.shutdown();
  out << stats_line(daemon.stats()) << '\n';
  return 0;
}

// Checks a --demo transcript: every emitted line must parse as JSON, the
// reply ids must be the script's request ids, each once, in submit order,
// and exactly the ids in `failing` must reply "ok": false.
bool transcript_is_valid(const std::string& script, const std::string& transcript,
                         const std::set<long long>& failing) {
  std::vector<long long> submitted;
  std::istringstream requests(script);
  std::string line;
  while (std::getline(requests, line)) {
    const JsonValue json = JsonParser(line).parse();
    if (const std::optional<long long> id = id_of(json)) submitted.push_back(*id);
  }
  std::vector<long long> replied;
  std::istringstream replies(transcript);
  while (std::getline(replies, line)) {
    if (line.rfind("> ", 0) == 0) continue;  // echoed input
    try {
      const JsonValue json = JsonParser(line).parse();
      const std::optional<long long> id = id_of(json);
      if (!id) continue;
      replied.push_back(*id);
      const JsonValue* ok = json.find("ok");
      const bool expect_ok = failing.count(*id) == 0;
      if (ok == nullptr || ok->type != JsonValue::Type::kBool || ok->boolean != expect_ok) {
        std::cerr << "demo: request " << *id << " should reply \"ok\": "
                  << (expect_ok ? "true" : "false") << ": " << line << '\n';
        return false;
      }
    } catch (const std::exception& e) {
      std::cerr << "demo: emitted line is not JSON (" << e.what() << "): " << line << '\n';
      return false;
    }
  }
  if (replied != submitted) {
    std::cerr << "demo: reply ids are missing, duplicated or out of submit order\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bool demo = argc > 1 && std::string_view(argv[1]) == "--demo";
  if (!demo) return run(std::cin, std::cout, /*echo_input=*/false);

  // Scripted smoke mix: a solve, an exact repeat (cache hit), a second
  // design, a batch of transient waves sharing one structure, a slower solve
  // followed by bad requests (whose errors must still leave in submit
  // order, carry their ids and stay valid JSON: an unknown role, a short
  // design, and counts that are negative, fractional or out of range), and
  // stats.
  const std::string script = R"({"id": 1, "kind": "steady", "design": [1, 2, 2, 1]}
{"id": 2, "kind": "steady", "design": [1, 2, 2, 1]}
{"id": 3, "kind": "steady", "design": [1, 1, 1, 1], "cadence": 360}
{"id": 4, "kind": "transient", "design": [1, 2, 2, 1], "wave": {"WEB": 1}}
{"id": 5, "kind": "transient", "design": [1, 2, 2, 1], "wave": {"DB": 1}}
{"id": 6, "kind": "steady", "design": [3, 3, 3, 3]}
{"id": 7, "kind": "transient", "design": [1, 2, 2, 1], "wave": {"W\"EB": 1}}
{"id": 8, "kind": "steady", "design": [1, 2, 2]}
{"id": 9, "kind": "transient", "design": [1, 2, 2, 1], "wave": {"WEB": -1}}
{"id": 10, "kind": "steady", "design": [1, 2.7, 2, 1]}
{"id": 11, "kind": "transient", "design": [1, 2, 2, 1], "wave": {"WEB": 1e30}}
{"cmd": "stats"}
{"cmd": "shutdown"}
)";
  std::istringstream in(script);
  std::ostringstream transcript;
  const int status = run(in, transcript, /*echo_input=*/true);
  std::cout << transcript.str();
  const bool valid = transcript_is_valid(script, transcript.str(), {7, 8, 9, 10, 11});
  return status == 0 && valid ? 0 : 1;
}
