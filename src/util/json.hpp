// util/json.hpp — the one JSON reader and writer.
//
// Every JSON producer and consumer in the project goes through this file:
// the server's requests and replies, the event log, build provenance, the
// run report, the Chrome trace export and efstat. It is a leaf library
// (evoforecast_json) with no evoforecast dependency, so obs can use it.
//
// Writing follows two rules, with no options:
//   * strings: `\"` `\\` `\n` `\r` `\t` short forms, every other byte below
//     0x20 as \u00xx, everything else verbatim (UTF-8 passes through);
//   * numbers: %.17g, which round-trips every double; non-finite numbers
//     are written as null, since JSON has no NaN or Inf literals. The bytes
//     come from std::to_chars(general, 17), which the standard defines as
//     %.17g in the C locale, so they never depend on LC_NUMERIC; integers
//     go through std::to_chars too.
// Output is compact: no whitespace, and keys stay in the order written.
//
// Reading is one grammar with one set of rejections, deliberately stricter
// than general JSON because a public port parses it:
//   * nesting deeper than kMaxDepth is an error, never a stack overflow;
//   * numbers must be finite doubles ("1e999" is an error). A number token
//     is read by std::from_chars, which rounds correctly and ignores the
//     locale. A token it refuses (a leading '+', a result out of range, a
//     malformed token) goes to strtod, whose verdict stands: "+1" reads as 1,
//     "1e-400" as 0, and "1e999" fails. Both round correctly, so every token
//     reads to the double strtod gives;
//   * duplicate object keys are errors, since last-one-wins would silently
//     drop a request field;
//   * \u escapes decode to UTF-8; lone surrogates are errors.
// Reader is a pull tokenizer: the server's request parser reads fields
// straight into its own struct, and parse() builds a small DOM with the
// same reader.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

namespace ef::json {

// --- writing ----------------------------------------------------------------

/// Appends `text` escaped by the string rule, without the quotes.
void append_escaped(std::string& out, std::string_view text);
/// Appends `value` by the number rule (%.17g via std::to_chars; null when
/// not finite).
void append_number(std::string& out, double value);

/// Builds one compact JSON document. Commas are inserted automatically;
/// the caller keeps begin/end calls balanced.
///
///   Writer w;
///   w.begin_object().key("ok").value(true).key("n").value(3).end_object();
///   w.take();  // {"ok":true,"n":3}
class Writer {
 public:
  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }
  Writer& key(std::string_view name);
  Writer& value(std::string_view text);
  Writer& value(const char* text) { return value(std::string_view(text)); }
  Writer& value(bool flag) { return raw(flag ? "true" : "false"); }
  Writer& value(double number);
  template <typename Int,
            std::enable_if_t<std::is_integral_v<Int> && !std::is_same_v<Int, bool>, int> = 0>
  Writer& value(Int number) {
    char buffer[std::numeric_limits<Int>::digits10 + 3];  // digits, sign, spare
    const auto result = std::to_chars(buffer, buffer + sizeof(buffer), number);
    return raw(std::string_view(buffer, static_cast<std::size_t>(result.ptr - buffer)));
  }
  Writer& null() { return raw("null"); }
  /// Splices an already-serialised JSON value (an echoed id, an embedded
  /// document) as the next value.
  Writer& raw(std::string_view json);

  /// Reserves room for `bytes` of output, so a document of known typical
  /// size allocates its buffer once instead of growing it step by step.
  Writer& reserve(std::size_t bytes) {
    out_.reserve(bytes);
    return *this;
  }

  /// Moves the document written so far out of the writer.
  [[nodiscard]] std::string take() noexcept { return std::move(out_); }

 private:
  Writer& open(char bracket);
  Writer& close(char bracket);
  /// Comma before every value or key except the first in its container or
  /// the value right after its key.
  void separate();

  std::string out_;
  bool need_comma_ = false;
};

// --- reading ----------------------------------------------------------------

/// Deepest value the reader accepts: the top-level value is depth 0, its
/// members depth 1, and so on.
inline constexpr std::size_t kMaxDepth = 8;

/// A syntax error: what() is "<reason> at byte <offset>".
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Pull reader: the caller walks the document in order, and the reader
/// checks the grammar as it goes, throwing Error at the first violation.
///
///   Reader in(text);
///   if (in.value() == Reader::Type::kObject) {
///     while (in.next_key()) {
///       const std::string key(in.text());
///       in.skip(in.value());  // or read it: number(), text(), ...
///     }
///   }
///   in.finish();
class Reader {
 public:
  enum class Type : std::uint8_t { kObject, kArray, kString, kNumber, kTrue, kFalse, kNull };

  explicit Reader(std::string_view text) : text_(text) {}

  /// Reads the next value: a scalar whole (text() or number() holds it), a
  /// container up to its opening bracket, its members left to next_key()
  /// or next_element().
  Type value();
  /// In an object: reads the next key into text() and true (read its value
  /// next), or consumes the closing brace and false.
  bool next_key();
  /// In an array: true when an element follows (read it next), or consumes
  /// the closing bracket and false.
  bool next_element();
  /// Reads the rest of a value whose value() call returned `type`.
  void skip(Type type);
  /// After the top-level value: nothing but whitespace may follow.
  void finish();

  /// Decoded key or string; valid until the next read.
  [[nodiscard]] std::string_view text() const noexcept { return string_; }
  [[nodiscard]] double number() const noexcept { return number_; }

 private:
  bool more(char closing);
  Type literal(std::string_view word, Type type);
  void read_number();
  void read_string();
  void read_unicode_escape();
  std::uint32_t hex4();
  void skip_ws();
  char peek();
  void expect(char c);
  [[noreturn]] void fail(std::string_view what) const;

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< open containers
  bool first_[kMaxDepth + 1] = {};  ///< per open container: no member read yet
  /// Keys of each open object, for the duplicate check. The first
  /// kInlineKeys unescaped keys are views of the input, searched linearly
  /// with no allocation; escaped keys and the rest go to a set, so a hostile
  /// line with 100k keys costs O(n log n), not O(n²).
  static constexpr std::uint8_t kInlineKeys = 16;
  std::string_view inline_keys_[kMaxDepth + 1][kInlineKeys];
  std::uint8_t inline_key_count_[kMaxDepth + 1] = {};
  std::set<std::string, std::less<>> keys_[kMaxDepth + 1];
  std::string_view string_;
  bool escaped_ = false;  ///< string_ views decoded_, not the input
  std::string decoded_;  ///< decoded text of a string that has escapes
  double number_ = 0.0;
};

// --- DOM --------------------------------------------------------------------

struct Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value, std::less<>>;

struct Value {
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data;

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(data); }
  [[nodiscard]] const bool* as_bool() const { return std::get_if<bool>(&data); }
  [[nodiscard]] const double* as_number() const { return std::get_if<double>(&data); }
  [[nodiscard]] const std::string* as_string() const { return std::get_if<std::string>(&data); }
  [[nodiscard]] const Array* as_array() const { return std::get_if<Array>(&data); }
  [[nodiscard]] const Object* as_object() const { return std::get_if<Object>(&data); }
  /// The member `key` of an object; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;
};

/// Parses a complete document. On a syntax error returns nullopt and sets
/// `error` to the reason and byte offset.
[[nodiscard]] std::optional<Value> parse(std::string_view text, std::string& error);

/// Serialises a Value with the Writer. Object keys come out sorted (Object
/// is an ordered map), so dump(parse(dump(v))) == dump(v).
[[nodiscard]] std::string dump(const Value& value);

}  // namespace ef::json
