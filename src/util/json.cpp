#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ef::json {

// --- writing ----------------------------------------------------------------

void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", static_cast<unsigned>(c));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
}

void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  // to_chars(general, 17) is defined as printf's %.17g in the C locale.
  char buffer[32];
  const auto result =
      std::to_chars(buffer, buffer + sizeof(buffer), value, std::chars_format::general, 17);
  out.append(buffer, result.ptr);
}

void Writer::separate() {
  if (need_comma_) out_.push_back(',');
  need_comma_ = true;
}

Writer& Writer::open(char bracket) {
  separate();
  out_.push_back(bracket);
  need_comma_ = false;
  return *this;
}

Writer& Writer::close(char bracket) {
  out_.push_back(bracket);
  need_comma_ = true;
  return *this;
}

Writer& Writer::key(std::string_view name) {
  value(name);
  out_.push_back(':');
  need_comma_ = false;
  return *this;
}

Writer& Writer::value(std::string_view text) {
  separate();
  out_.push_back('"');
  append_escaped(out_, text);
  out_.push_back('"');
  return *this;
}

Writer& Writer::value(double number) {
  separate();
  append_number(out_, number);
  return *this;
}

Writer& Writer::raw(std::string_view json) {
  separate();
  out_ += json;
  return *this;
}

// --- reading ----------------------------------------------------------------
//
// The byte offsets in error messages are part of the server's wire contract
// ("bad JSON: <reason> at byte N"). The reader keeps the offsets of the
// recursive-descent parser it replaced: callers recurse the same way, and
// every check runs at the same point — a depth check before the value's
// leading whitespace, a bad separator reported one byte past it, and so on.

using Type = Reader::Type;

void Reader::fail(std::string_view what) const {
  throw Error(std::string(what) + " at byte " + std::to_string(pos_));
}

void Reader::skip_ws() {
  while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                 text_[pos_] == '\r' || text_[pos_] == '\n')) {
    ++pos_;
  }
}

char Reader::peek() {
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

void Reader::expect(char c) {
  if (peek() != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

Type Reader::value() {
  if (depth_ > kMaxDepth) fail("nesting too deep");
  skip_ws();
  const char c = peek();
  switch (c) {
    case '{':
    case '[':
      ++pos_;
      first_[depth_] = true;
      if (c == '{') {
        inline_key_count_[depth_] = 0;
        keys_[depth_].clear();
      }
      ++depth_;
      return c == '{' ? Type::kObject : Type::kArray;
    case '"': read_string(); return Type::kString;
    case 't': return literal("true", Type::kTrue);
    case 'f': return literal("false", Type::kFalse);
    case 'n': return literal("null", Type::kNull);
    default: read_number(); return Type::kNumber;
  }
}

/// Before a container's next member: true when one follows, false (the
/// container closed) at `closing`.
bool Reader::more(char closing) {
  skip_ws();
  const char c = peek();
  const bool first = first_[depth_ - 1];
  first_[depth_ - 1] = false;
  if (first ? c != closing : c == ',') {
    if (!first) ++pos_;
    return true;
  }
  ++pos_;
  if (c != closing) fail(closing == ']' ? "expected ',' or ']'" : "expected ',' or '}'");
  --depth_;
  return false;
}

bool Reader::next_element() { return more(']'); }

bool Reader::next_key() {
  if (!more('}')) return false;
  skip_ws();
  read_string();
  skip_ws();
  expect(':');
  // Last-one-wins would silently discard a request field, and the caller
  // has no way to notice.
  const std::size_t level = depth_ - 1;
  std::string_view* const inline_keys = inline_keys_[level];
  std::uint8_t& count = inline_key_count_[level];
  auto& spilled = keys_[level];
  if (std::find(inline_keys, inline_keys + count, string_) != inline_keys + count ||
      (!spilled.empty() && spilled.find(string_) != spilled.end())) {
    fail("duplicate key \"" + std::string(string_) + "\"");
  }
  // An escaped key lives in decoded_, which the next string overwrites, so
  // only keys that are views of the input stay inline.
  if (!escaped_ && count < kInlineKeys) {
    inline_keys[count++] = string_;
  } else {
    spilled.emplace(string_);
  }
  return true;
}

void Reader::skip(Type type) {
  if (type == Type::kObject) {
    while (next_key()) skip(value());
  } else if (type == Type::kArray) {
    while (next_element()) skip(value());
  }
}

void Reader::finish() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing characters after JSON value");
}

Type Reader::literal(std::string_view word, Type type) {
  if (text_.substr(pos_, word.size()) != word) fail("bad literal");
  pos_ += word.size();
  return type;
}

void Reader::read_number() {
  const std::size_t start = pos_;
  if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
  for (; pos_ < text_.size(); ++pos_) {
    const char c = text_[pos_];
    if ((c < '0' || c > '9') && c != '.' && c != 'e' && c != 'E' && c != '-' && c != '+') break;
  }
  if (pos_ == start) fail("expected a value");
  const std::string_view token = text_.substr(start, pos_ - start);
  const char* const last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, number_);
  if (ec == std::errc() && ptr == last && std::isfinite(number_)) return;
  // from_chars refused the token (a leading '+', a result out of range, a
  // malformed number): strtod decides, with its own rounding of tiny values
  // to zero, and its result is the one checked. strtod needs a terminator, so short tokens are copied to the
  // stack.
  char stack[64];
  std::string heap;
  const char* begin = stack;
  if (token.size() < sizeof(stack)) {
    std::memcpy(stack, token.data(), token.size());
    stack[token.size()] = '\0';
  } else {
    heap.assign(token);
    begin = heap.c_str();
  }
  char* end = nullptr;
  number_ = std::strtod(begin, &end);
  if (end != begin + token.size()) fail("malformed number");
  if (!std::isfinite(number_)) fail("non-finite number");
}

void Reader::read_string() {
  expect('"');
  // Fast path: without escapes the text is a view of the input.
  const std::size_t start = pos_;
  while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\' &&
         static_cast<unsigned char>(text_[pos_]) >= 0x20) {
    ++pos_;
  }
  if (pos_ < text_.size() && text_[pos_] == '"') {
    string_ = text_.substr(start, pos_++ - start);
    escaped_ = false;
    return;
  }
  escaped_ = true;
  decoded_.assign(text_.substr(start, pos_ - start));
  for (;;) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') break;
    if (static_cast<unsigned char>(c) < 0x20) fail("control character in string");
    if (c != '\\') {
      decoded_.push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    static constexpr std::string_view kEscapes = "\"\\/bfnrt";
    static constexpr std::string_view kUnescaped = "\"\\/\b\f\n\r\t";
    const char esc = text_[pos_++];
    if (const std::size_t i = kEscapes.find(esc); i != std::string_view::npos) {
      decoded_.push_back(kUnescaped[i]);
    } else if (esc == 'u') {
      read_unicode_escape();
    } else {
      fail("bad escape");
    }
  }
  string_ = decoded_;
}

/// Four hex digits already past the "\u".
std::uint32_t Reader::hex4() {
  std::uint32_t unit = 0;
  for (int i = 0; i < 4; ++i) {
    if (pos_ >= text_.size()) fail("unterminated \\u escape");
    const char c = text_[pos_++];
    const int digit = c >= '0' && c <= '9'   ? c - '0'
                      : c >= 'a' && c <= 'f' ? c - 'a' + 10
                      : c >= 'A' && c <= 'F' ? c - 'A' + 10
                                             : -1;
    if (digit < 0) fail("bad hex digit in \\u escape");
    unit = unit << 4 | static_cast<std::uint32_t>(digit);
  }
  return unit;
}

/// A valid surrogate pair decodes to one code point; lone surrogates fail.
void Reader::read_unicode_escape() {
  std::uint32_t code = hex4();
  if (code >= 0xDC00 && code <= 0xDFFF) fail("lone low surrogate");
  if (code >= 0xD800 && code <= 0xDBFF) {
    if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
      fail("high surrogate not followed by \\u escape");
    }
    pos_ += 2;
    const std::uint32_t low = hex4();
    if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
  }
  // UTF-8 encode: a lead byte, then 6 bits per continuation byte.
  static constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
  const int extra = code < 0x80 ? 0 : code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
  decoded_.push_back(static_cast<char>(kLead[extra] | (code >> (6 * extra))));
  for (int i = extra - 1; i >= 0; --i) {
    decoded_.push_back(static_cast<char>(0x80 | ((code >> (6 * i)) & 0x3F)));
  }
}

// --- DOM --------------------------------------------------------------------

namespace {

Value build(Reader& in, Type type) {
  switch (type) {
    case Type::kObject: {
      Object object;
      while (in.next_key()) {
        std::string key(in.text());
        object.emplace(std::move(key), build(in, in.value()));
      }
      return Value{std::move(object)};
    }
    case Type::kArray: {
      Array array;
      while (in.next_element()) array.push_back(build(in, in.value()));
      return Value{std::move(array)};
    }
    case Type::kString: return Value{std::string(in.text())};
    case Type::kNumber: return Value{in.number()};
    case Type::kTrue: return Value{true};
    case Type::kFalse: return Value{false};
    case Type::kNull: break;
  }
  return Value{nullptr};
}

void dump_value(Writer& out, const Value& value) {
  if (value.is_null()) {
    out.null();
  } else if (const bool* b = value.as_bool()) {
    out.value(*b);
  } else if (const double* n = value.as_number()) {
    out.value(*n);
  } else if (const std::string* s = value.as_string()) {
    out.value(*s);
  } else if (const Array* a = value.as_array()) {
    out.begin_array();
    for (const Value& item : *a) dump_value(out, item);
    out.end_array();
  } else if (const Object* o = value.as_object()) {
    out.begin_object();
    for (const auto& [key, item] : *o) dump_value(out.key(key), item);
    out.end_object();
  }
}

}  // namespace

const Value* Value::find(std::string_view key) const {
  const Object* object = as_object();
  if (object == nullptr) return nullptr;
  const auto it = object->find(key);
  return it != object->end() ? &it->second : nullptr;
}

std::optional<Value> parse(std::string_view text, std::string& error) {
  try {
    Reader in(text);
    Value root = build(in, in.value());
    in.finish();
    return root;
  } catch (const Error& e) {
    error = e.what();
    return std::nullopt;
  }
}

std::string dump(const Value& value) {
  Writer out;
  dump_value(out, value);
  return out.take();
}

}  // namespace ef::json
