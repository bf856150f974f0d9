// Minimal streaming JSON writer shared by the benchmark drivers.
//
// Every bench that produces a machine-readable artifact (BENCH_cfd.json,
// BENCH_fig7.json, BENCH_micro.json) goes through this emitter so the CI
// smoke step and downstream tooling can rely on one formatting contract:
// UTF-8, no trailing commas, doubles with round-trip precision, and
// non-finite values mapped to null (plain JSON has no NaN/Inf literal).
//
// Usage:
//   xg::bench::JsonWriter jw(out_stream);
//   jw.BeginObject();
//   jw.Field("schema", "xg-bench-v1");
//   jw.Key("results");
//   jw.BeginArray();
//   ...
//   jw.EndArray();
//   jw.EndObject();
//
// The writer tracks nesting and comma placement; it aborts (assert-style
// via std::abort) on gross misuse such as unbalanced End calls, which is
// acceptable for bench drivers where a malformed artifact must never be
// written silently.
//
// The header also holds the flags every artifact-writing bench accepts
// (TakeBenchFlags): `--smoke` for a short run that still writes a complete
// artifact, and `--out PATH` for where it goes.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string>
#include <vector>

namespace xg::bench {

/// The flags shared by every bench that writes an artifact.
struct BenchFlags {
  bool smoke = false;
  std::string out_path;  ///< preset to the bench's default artifact name
};

/// Consume `--smoke` and `--out PATH` from argv, compacting the remaining
/// arguments in place (argv[0] kept, argc updated) so the bench can parse
/// or forward the rest. Returns false when `--out` has no path.
inline bool TakeBenchFlags(int& argc, char** argv, BenchFlags& flags) {
  int kept = 1;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--smoke") {
      flags.smoke = true;
    } else if (arg == "--out") {
      if (a + 1 >= argc) return false;
      flags.out_path = argv[++a];
    } else {
      argv[kept++] = argv[a];
    }
  }
  argc = kept;
  return true;
}

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void BeginObject() {
    Prefix();
    os_ << '{';
    stack_.push_back(Frame{/*is_object=*/true, /*count=*/0});
    pending_key_ = false;
  }
  void EndObject() {
    if (stack_.empty() || !stack_.back().is_object || pending_key_) Misuse();
    stack_.pop_back();
    os_ << '}';
  }
  void BeginArray() {
    Prefix();
    os_ << '[';
    stack_.push_back(Frame{/*is_object=*/false, /*count=*/0});
    pending_key_ = false;
  }
  void EndArray() {
    if (stack_.empty() || stack_.back().is_object) Misuse();
    stack_.pop_back();
    os_ << ']';
  }

  /// Emit the key of the next object member.
  void Key(const std::string& key) {
    if (stack_.empty() || !stack_.back().is_object || pending_key_) Misuse();
    Comma();
    WriteString(key);
    os_ << ':';
    pending_key_ = true;
  }

  void Value(double v) {
    Prefix();
    if (!std::isfinite(v)) {
      os_ << "null";  // JSON has no NaN/Inf literal.
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os_ << buf;
  }
  void Value(int64_t v) {
    Prefix();
    os_ << v;
  }
  void Value(uint64_t v) {
    Prefix();
    os_ << v;
  }
  void Value(int v) { Value(static_cast<int64_t>(v)); }
  void Value(unsigned v) { Value(static_cast<uint64_t>(v)); }
  void Value(bool v) {
    Prefix();
    os_ << (v ? "true" : "false");
  }
  void Value(const std::string& v) {
    Prefix();
    WriteString(v);
  }
  void Value(const char* v) { Value(std::string(v)); }

  /// Key + scalar value in one call.
  template <typename T>
  void Field(const std::string& key, T value) {
    Key(key);
    Value(value);
  }

  /// True once all Begin calls have been balanced by End calls.
  bool Complete() const { return stack_.empty() && !pending_key_; }

 private:
  struct Frame {
    bool is_object;
    uint64_t count;
  };

  [[noreturn]] static void Misuse() {
    std::fprintf(stderr, "JsonWriter: unbalanced or misplaced call\n");
    std::abort();
  }

  void Comma() {
    if (!stack_.empty() && stack_.back().count++ > 0) os_ << ',';
  }

  /// Placement bookkeeping for a value: either it satisfies a pending
  /// object key, or it is an array element (comma-separated).
  void Prefix() {
    if (pending_key_) {
      pending_key_ = false;
      return;
    }
    if (!stack_.empty() && stack_.back().is_object) Misuse();
    Comma();
  }

  void WriteString(const std::string& s) {
    os_ << '"';
    for (unsigned char ch : s) {
      switch (ch) {
        case '"': os_ << "\\\""; break;
        case '\\': os_ << "\\\\"; break;
        case '\n': os_ << "\\n"; break;
        case '\r': os_ << "\\r"; break;
        case '\t': os_ << "\\t"; break;
        default:
          if (ch < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
            os_ << buf;
          } else {
            os_ << static_cast<char>(ch);
          }
      }
    }
    os_ << '"';
  }

  std::ostream& os_;
  std::vector<Frame> stack_;
  bool pending_key_ = false;
};

}  // namespace xg::bench
