#include "obs/json.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace platoon::obs {

Json Json::boolean(bool b) {
    Json j;
    j.type_ = Type::kBool;
    j.bool_ = b;
    return j;
}

Json Json::integer(std::int64_t v) {
    Json j;
    j.type_ = Type::kInt;
    j.int_ = v;
    return j;
}

Json Json::number(double v) {
    Json j;
    j.type_ = Type::kDouble;
    j.double_ = v;
    return j;
}

Json Json::string(std::string s) {
    Json j;
    j.type_ = Type::kString;
    j.string_ = std::move(s);
    return j;
}

Json Json::array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
}

Json Json::object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
}

double Json::as_double() const {
    return type_ == Type::kInt ? static_cast<double>(int_) : double_;
}

const Json& Json::at(const std::string& key) const {
    static const Json kNull;
    if (type_ != Type::kObject) return kNull;
    const auto it = object_.find(key);
    return it == object_.end() ? kNull : it->second;
}

void Json::set(std::string key, Json value) {
    type_ = Type::kObject;
    object_[std::move(key)] = std::move(value);
}

bool operator==(const Json& a, const Json& b) {
    if (a.type_ != b.type_) return false;
    switch (a.type_) {
        case Json::Type::kNull: return true;
        case Json::Type::kBool: return a.bool_ == b.bool_;
        case Json::Type::kInt: return a.int_ == b.int_;
        case Json::Type::kDouble: return a.double_ == b.double_;
        case Json::Type::kString: return a.string_ == b.string_;
        case Json::Type::kArray: return a.array_ == b.array_;
        case Json::Type::kObject: return a.object_ == b.object_;
    }
    return false;
}

bool valid_utf8(std::string_view s) {
    const auto byte = [s](std::size_t at) {
        return static_cast<unsigned char>(s[at]);
    };
    std::size_t i = 0;
    while (i < s.size()) {
        const unsigned char lead = byte(i);
        if (lead < 0x80) {
            ++i;
            continue;
        }
        // Sequence length and the valid range of the second byte, which
        // excludes overlongs (E0, F0), surrogates (ED) and > U+10FFFF (F4).
        std::size_t len;
        unsigned char lo = 0x80, hi = 0xBF;
        if (lead >= 0xC2 && lead <= 0xDF) {
            len = 2;
        } else if (lead >= 0xE0 && lead <= 0xEF) {
            len = 3;
            if (lead == 0xE0) lo = 0xA0;
            if (lead == 0xED) hi = 0x9F;
        } else if (lead >= 0xF0 && lead <= 0xF4) {
            len = 4;
            if (lead == 0xF0) lo = 0x90;
            if (lead == 0xF4) hi = 0x8F;
        } else {
            return false;  // continuation byte, C0/C1 or F5..FF as a lead
        }
        if (s.size() - i < len) return false;
        if (byte(i + 1) < lo || byte(i + 1) > hi) return false;
        for (std::size_t k = 2; k < len; ++k)
            if (byte(i + k) < 0x80 || byte(i + k) > 0xBF) return false;
        i += len;
    }
    return true;
}

void push_pointer(std::string& path, std::string_view segment) {
    path += '/';
    for (const char c : segment) {
        if (c == '~') {
            path += "~0";
        } else if (c == '/') {
            path += "~1";
        } else {
            path += c;
        }
    }
}

namespace {

void require_utf8(const std::string& s, const std::string& path,
                  const char* what) {
    if (valid_utf8(s)) return;
    throw std::invalid_argument(std::string("obs::Json::dump: ") + what +
                                " is not valid UTF-8 at \"" + path + "\"");
}

void escape_to(std::string& out, const std::string& s) {
    out += '"';
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(
                                      static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

void number_to(std::string& out, double v) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
    // Ensure a double never re-parses as an integer (schema stability).
    const std::string_view written(buf, static_cast<std::size_t>(res.ptr - buf));
    if (written.find_first_of(".eE") == std::string_view::npos &&
        written != "inf" && written != "-inf" && written != "nan") {
        out += ".0";
    }
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth,
                   std::string& path) const {
    const std::string pad(static_cast<std::size_t>(indent * (depth + 1)), ' ');
    const std::string close_pad(static_cast<std::size_t>(indent * depth), ' ');
    switch (type_) {
        case Type::kNull: out += "null"; break;
        case Type::kBool: out += bool_ ? "true" : "false"; break;
        case Type::kInt: {
            char buf[24];
            const auto res = std::to_chars(buf, buf + sizeof buf, int_);
            out.append(buf, res.ptr);
            break;
        }
        case Type::kDouble: number_to(out, double_); break;
        case Type::kString:
            require_utf8(string_, path, "string");
            escape_to(out, string_);
            break;
        case Type::kArray: {
            if (array_.empty()) {
                out += "[]";
                break;
            }
            out += "[\n";
            for (std::size_t i = 0; i < array_.size(); ++i) {
                out += pad;
                const std::size_t mark = path.size();
                push_pointer(path, std::to_string(i));
                array_[i].dump_to(out, indent, depth + 1, path);
                path.resize(mark);
                if (i + 1 < array_.size()) out += ',';
                out += '\n';
            }
            out += close_pad;
            out += ']';
            break;
        }
        case Type::kObject: {
            if (object_.empty()) {
                out += "{}";
                break;
            }
            out += "{\n";
            std::size_t i = 0;
            for (const auto& [key, value] : object_) {
                // Checked before it joins the path, so a message never
                // carries the bad bytes; the path names its parent.
                require_utf8(key, path, "an object key");
                out += pad;
                escape_to(out, key);
                out += ": ";
                const std::size_t mark = path.size();
                push_pointer(path, key);
                value.dump_to(out, indent, depth + 1, path);
                path.resize(mark);
                if (++i < object_.size()) out += ',';
                out += '\n';
            }
            out += close_pad;
            out += '}';
            break;
        }
    }
}

std::string Json::dump(int indent) const {
    std::string out;
    std::string path;
    dump_to(out, indent, 0, path);
    out += '\n';
    return out;
}

// ---------------------------------------------------------------------------
// Parser.

namespace {

struct Parser {
    /// Containers may nest this deep before the parser refuses: recursion
    /// is bounded so hostile input (or a miswritten artifact) cannot blow
    /// the stack. Our own artifacts nest < 10 levels.
    static constexpr int kMaxDepth = 96;

    std::string_view text;
    std::size_t pos = 0;
    int depth = 0;

    void skip_ws() {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
                text[pos] == '\r'))
            ++pos;
    }

    [[nodiscard]] bool eat(char c) {
        skip_ws();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    [[nodiscard]] bool literal(std::string_view word) {
        if (text.compare(pos, word.size(), word) != 0) return false;
        pos += word.size();
        return true;
    }

    std::optional<std::string> parse_string() {
        if (!eat('"')) return std::nullopt;
        std::string out;
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"') return out;
            if (c == '\\') {
                if (pos >= text.size()) return std::nullopt;
                const char esc = text[pos++];
                switch (esc) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'n': out += '\n'; break;
                    case 'r': out += '\r'; break;
                    case 't': out += '\t'; break;
                    case 'b': out += '\b'; break;
                    case 'f': out += '\f'; break;
                    case 'u': {
                        if (pos + 4 > text.size()) return std::nullopt;
                        unsigned code = 0;
                        for (int k = 0; k < 4; ++k) {
                            const char h = text[pos++];
                            code <<= 4;
                            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
                            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
                            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
                            else return std::nullopt;
                        }
                        // Our own dumps only emit \u00XX; decode BMP code
                        // points as UTF-8 for completeness.
                        if (code < 0x80) {
                            out += static_cast<char>(code);
                        } else if (code < 0x800) {
                            out += static_cast<char>(0xC0 | (code >> 6));
                            out += static_cast<char>(0x80 | (code & 0x3F));
                        } else {
                            out += static_cast<char>(0xE0 | (code >> 12));
                            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                            out += static_cast<char>(0x80 | (code & 0x3F));
                        }
                        break;
                    }
                    default: return std::nullopt;
                }
            } else {
                out += c;
            }
        }
        return std::nullopt;  // unterminated
    }

    std::optional<Json> parse_value() {
        skip_ws();
        if (pos >= text.size()) return std::nullopt;
        const char c = text[pos];
        if (c == '{') {
            ++pos;
            if (++depth > kMaxDepth) return std::nullopt;
            Json obj = Json::object();
            skip_ws();
            if (eat('}')) {
                --depth;
                return obj;
            }
            for (;;) {
                auto key = parse_string();
                if (!key) return std::nullopt;
                // A duplicate key would silently drop one of the two
                // values into the std::map; reject it instead.
                if (obj.as_object().count(*key) != 0) return std::nullopt;
                if (!eat(':')) return std::nullopt;
                auto value = parse_value();
                if (!value) return std::nullopt;
                obj.as_object()[std::move(*key)] = std::move(*value);
                if (eat(',')) {
                    skip_ws();
                    continue;
                }
                if (eat('}')) {
                    --depth;
                    return obj;
                }
                return std::nullopt;
            }
        }
        if (c == '[') {
            ++pos;
            if (++depth > kMaxDepth) return std::nullopt;
            Json arr = Json::array();
            skip_ws();
            if (eat(']')) {
                --depth;
                return arr;
            }
            for (;;) {
                auto value = parse_value();
                if (!value) return std::nullopt;
                arr.as_array().push_back(std::move(*value));
                if (eat(',')) continue;
                if (eat(']')) {
                    --depth;
                    return arr;
                }
                return std::nullopt;
            }
        }
        if (c == '"') {
            auto s = parse_string();
            if (!s) return std::nullopt;
            return Json::string(std::move(*s));
        }
        if (literal("true")) return Json::boolean(true);
        if (literal("false")) return Json::boolean(false);
        if (literal("null")) return Json{};

        // Number: integer unless it spells a fraction or exponent.
        const std::size_t start = pos;
        if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
        bool is_double = false;
        while (pos < text.size()) {
            const char d = text[pos];
            if (d >= '0' && d <= '9') {
                ++pos;
            } else if (d == '.' || d == 'e' || d == 'E' || d == '-' ||
                       d == '+') {
                if (d == '.' || d == 'e' || d == 'E') is_double = true;
                ++pos;
            } else {
                break;
            }
        }
        if (pos == start) return std::nullopt;
        const std::string_view num = text.substr(start, pos - start);
        if (!is_double) {
            std::int64_t v = 0;
            const auto res = std::from_chars(num.data(), num.data() + num.size(), v);
            if (res.ec == std::errc() && res.ptr == num.data() + num.size())
                return Json::integer(v);
        }
        double v = 0.0;
        const auto res = std::from_chars(num.data(), num.data() + num.size(), v);
        if (res.ec != std::errc() || res.ptr != num.data() + num.size())
            return std::nullopt;
        return Json::number(v);
    }
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text) {
    Parser p{text};
    auto value = p.parse_value();
    if (!value) return std::nullopt;
    p.skip_ws();
    if (p.pos != text.size()) return std::nullopt;  // trailing junk
    return value;
}

}  // namespace platoon::obs
