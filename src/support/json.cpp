#include "support/json.hpp"

#include <optional>
#include <stdexcept>

#include "support/csv.hpp"

namespace iw::json {
namespace {

class Reader {
 public:
  Reader(const std::string& text, const std::string& what)
      : p_(text.data()), end_(text.data() + text.size()), what_(what) {}

  Value parse() {
    Value v = value();
    skip_ws();
    if (p_ != end_) fail("trailing content after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw std::runtime_error(what_ + ": " + msg + " at byte " +
                             std::to_string(offset_));
  }

  [[nodiscard]] bool eof() const { return p_ == end_; }

  char peek() const {
    if (eof()) fail("unexpected end of input");
    return *p_;
  }

  char next() {
    const char c = peek();
    ++p_;
    ++offset_;
    return c;
  }

  void expect(char c) {
    if (next() != c) fail(std::string("expected '") + c + "'");
  }

  void skip_ws() {
    while (!eof() && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r'))
      next();
  }

  bool consume_word(const char* word) {
    const char* q = p_;
    for (const char* w = word; *w; ++w, ++q)
      if (q == end_ || *q != *w) return false;
    while (p_ != q) next();
    return true;
  }

  Value value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth)
        fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      ++depth_;
      Value v = c == '{' ? object() : array();
      --depth_;
      return v;
    }
    if (c == '"') {
      Value v;
      v.kind = Value::Kind::string;
      v.text = string();
      return v;
    }
    if (consume_word("true")) {
      Value v;
      v.kind = Value::Kind::boolean;
      v.boolean = true;
      return v;
    }
    if (consume_word("false")) {
      Value v;
      v.kind = Value::Kind::boolean;
      return v;
    }
    if (consume_word("null")) return {};
    return number();
  }

  Value object() {
    Value v;
    v.kind = Value::Kind::object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      next();
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), value());
      skip_ws();
      const char c = next();
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value array() {
    Value v;
    v.kind = Value::Kind::array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      next();
      return v;
    }
    while (true) {
      v.items.push_back(value());
      skip_ws();
      const char c = next();
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = next();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          int code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = next();
            code *= 16;
            if (h >= '0' && h <= '9') code += h - '0';
            else if (h >= 'a' && h <= 'f') code += h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code += h - 'A' + 10;
            else fail("bad \\u escape");
          }
          // json_str only emits \u escapes for control bytes; anything
          // beyond Latin-1 would need surrogate handling we don't accept.
          if (code > 0xFF) fail("non-Latin-1 \\u escape");
          out += static_cast<char>(code);
          break;
        }
        default: fail("unknown string escape");
      }
    }
  }

  Value number() {
    std::string digits;
    if (peek() == '-') digits += next();
    while (!eof() && ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' || *p_ == 'e' ||
                      *p_ == 'E' || *p_ == '+' || *p_ == '-'))
      digits += next();
    if (digits.empty() || digits == "-") fail("expected a value");
    const std::optional<double> number = parse_whole<double>(digits);
    if (!number) fail("malformed number '" + digits + "'");
    Value v;
    v.kind = Value::Kind::number;
    v.number = *number;
    return v;
  }

  const char* p_;
  const char* end_;
  const std::string& what_;
  std::size_t offset_ = 0;
  int depth_ = 0;  ///< open arrays/objects around the current value
};

}  // namespace

Value parse(const std::string& text, const std::string& what) {
  return Reader(text, what).parse();
}

}  // namespace iw::json
