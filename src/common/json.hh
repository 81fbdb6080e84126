/**
 * @file
 * Minimal JSON document model with a writer and a strict parser.
 *
 * Written by the sweep engine's ResultsTable and the telemetry writer
 * (src/obs/telemetry.cc); the parser lets the tests validate trace and
 * telemetry output.  (scripts/ci.sh writes its BENCH_*.json artifacts
 * with shell heredocs, not through this model.)  Objects preserve
 * insertion order so emitted documents are deterministic and diffable
 * across runs.
 */

#ifndef GARIBALDI_COMMON_JSON_HH
#define GARIBALDI_COMMON_JSON_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace garibaldi
{

/** One JSON value: null, bool, number, string, array or object. */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    JsonValue() : kind_(Kind::Null) {}

    static JsonValue boolean(bool v);
    static JsonValue number(double v);
    static JsonValue string(std::string v);
    static JsonValue array();
    static JsonValue object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }

    /** Typed accessors; fatal() on kind mismatch. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;

    /** Array access. */
    void push(JsonValue v);
    std::size_t size() const;
    const JsonValue &at(std::size_t i) const;

    /** Object access (insertion-ordered). */
    void set(const std::string &key, JsonValue v);
    bool has(const std::string &key) const;
    const JsonValue &get(const std::string &key) const;
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;

    /**
     * Serialize.  @p indent > 0 pretty-prints with that many spaces
     * per level; 0 emits the compact single-line form.
     */
    std::string dump(int indent = 0) const;

    /** Parse a complete document; fatal() on malformed input. */
    static JsonValue parse(const std::string &text);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_;
    bool bool_ = false;
    double num_ = 0;
    std::string str_;
    std::vector<JsonValue> arr_;
    std::vector<std::pair<std::string, JsonValue>> obj_;
};

/** Escape @p s as the inside of a JSON string literal. */
std::string jsonEscape(const std::string &s);

/**
 * Format @p v the way JsonValue::dump does (shortest representation
 * that parses back to the same double).  Non-finite values emit the
 * JSON5-style tokens NaN / Infinity / -Infinity, which the parser
 * accepts back (strict JSON has no spelling for them).
 */
std::string jsonNumber(double v);

} // namespace garibaldi

#endif // GARIBALDI_COMMON_JSON_HH
