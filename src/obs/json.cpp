#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace aio::obs {

Json Json::rendered_array(std::string text, std::size_t n) {
  Json j;
  j.value_ = std::make_shared<const Rendered>(Rendered{std::move(text), n});
  return j;
}

const std::string& Json::str() const {
  static const std::string empty;
  return is_string() ? std::get<std::string>(value_) : empty;
}

Json& Json::set(std::string key, Json value) {
  if (!is_object()) value_ = Object{};
  auto& obj = std::get<Object>(value_);
  for (auto& [k, v] : obj) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  obj.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  if (!is_array()) value_ = Array{};
  std::get<Array>(value_).push_back(std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : std::get<Object>(value_))
    if (k == key) return &v;
  return nullptr;
}

std::size_t Json::size() const {
  if (const auto* a = std::get_if<Array>(&value_)) return a->size();
  if (const auto* o = std::get_if<Object>(&value_)) return o->size();
  if (const auto* r = std::get_if<RenderedPtr>(&value_)) return (*r)->n;
  return 0;
}

void Json::append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no Inf/NaN; null is the least-bad spelling
    out += "null";
    return;
  }
  char buf[32];
  const bool integral = v == std::floor(v) && std::abs(v) < 1e15;
  const auto [ptr, ec] = integral ? std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(v))
                                  : std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

void Json::append_quoted(std::string& out, std::string_view s) {
  out += '"';
  std::size_t plain = 0;  // start of the pending run that needs no escaping
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (static_cast<unsigned char>(c) >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s, plain);
  out += '"';
}

void Json::dump_to(std::string& out) const {
  switch (value_.index()) {  // alternatives in value_'s declaration order
    case 0: out += "null"; return;
    case 1: out += std::get<1>(value_) ? "true" : "false"; return;
    case 2: append_number(out, std::get<2>(value_)); return;
    case 3: append_quoted(out, std::get<3>(value_)); return;
    case 4:
      out += '[';
      for (const Json& v : std::get<4>(value_)) {
        v.dump_to(out);
        out += ',';
      }
      break;
    case 5:
      out += '{';
      for (const auto& [k, v] : std::get<5>(value_)) {
        append_quoted(out, k);
        out += ':';
        v.dump_to(out);
        out += ',';
      }
      break;
    default: {
      // Room for the text plus a short tail, so a large rendered array is
      // copied once and the document's closing members do not regrow `out`.
      const std::string& text = std::get<6>(value_)->text;
      out.reserve(out.size() + text.size() + 256);
      out += '[';
      out += text;
      out += ']';
      return;
    }
  }
  // The last member's comma becomes the closer; an empty one ends in its opener.
  const char close = value_.index() == 4 ? ']' : '}';
  if (out.back() == ',') out.back() = close;
  else out += close;
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

namespace {

// Recursive-descent parser.  `pos` always points at the next unconsumed
// character; every production returns nullopt on malformed input.
struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  int depth = 0;
  static constexpr int kMaxDepth = 128;

  void skip_ws() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }

  [[nodiscard]] bool eat(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  std::optional<Json> value() {
    if (++depth > kMaxDepth) return std::nullopt;
    skip_ws();
    if (pos >= text.size()) return std::nullopt;
    std::optional<Json> out;
    switch (text[pos]) {
      case 'n': out = literal("null") ? std::optional<Json>(Json()) : std::nullopt; break;
      case 't': out = literal("true") ? std::optional<Json>(Json(true)) : std::nullopt; break;
      case 'f': out = literal("false") ? std::optional<Json>(Json(false)) : std::nullopt; break;
      case '"': out = string(); break;
      case '[': out = array(); break;
      case '{': out = object(); break;
      default: out = number(); break;
    }
    --depth;
    return out;
  }

  std::optional<Json> number() {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() && (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                                 text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
                                 text[pos] == '+' || text[pos] == '-'))
      ++pos;
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(text.data() + start, text.data() + pos, v);
    if (ec != std::errc{} || ptr != text.data() + pos || pos == start) return std::nullopt;
    return Json(v);
  }

  std::optional<Json> string() {
    std::optional<std::string> s = raw_string();
    if (!s) return std::nullopt;
    return Json(std::move(*s));
  }

  std::optional<std::string> raw_string() {
    if (!eat('"')) return std::nullopt;
    std::string out;
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) return std::nullopt;
      const char esc = text[pos++];
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
          if (pos + 4 > text.size()) return std::nullopt;
          unsigned cp = 0;
          const auto [ptr, ec] =
              std::from_chars(text.data() + pos, text.data() + pos + 4, cp, 16);
          if (ec != std::errc{} || ptr != text.data() + pos + 4) return std::nullopt;
          pos += 4;
          // UTF-8 encode the code point (surrogate pairs are not combined;
          // the writer above never emits them).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Json> array() {
    if (!eat('[')) return std::nullopt;
    Json out = Json::array();
    skip_ws();
    if (eat(']')) return out;
    while (true) {
      std::optional<Json> v = value();
      if (!v) return std::nullopt;
      out.push(std::move(*v));
      skip_ws();
      if (eat(']')) return out;
      if (!eat(',')) return std::nullopt;
    }
  }

  std::optional<Json> object() {
    if (!eat('{')) return std::nullopt;
    Json out = Json::object();
    skip_ws();
    if (eat('}')) return out;
    while (true) {
      skip_ws();
      std::optional<std::string> key = raw_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!eat(':')) return std::nullopt;
      std::optional<Json> v = value();
      if (!v) return std::nullopt;
      out.set(std::move(*key), std::move(*v));
      skip_ws();
      if (eat('}')) return out;
      if (!eat(',')) return std::nullopt;
    }
  }
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text) {
  Parser p{text};
  std::optional<Json> v = p.value();
  if (!v) return std::nullopt;
  p.skip_ws();
  if (p.pos != text.size()) return std::nullopt;  // trailing garbage
  return v;
}

}  // namespace aio::obs
