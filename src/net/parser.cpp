#include "net/parser.h"

#include <optional>
#include <stdexcept>

namespace tracer::net {

namespace {

MessageType type_from_name(const std::string& name) {
  static const std::pair<const char*, MessageType> kNames[] = {
      {"ACK", MessageType::kAck},
      {"ERROR", MessageType::kError},
      {"CONFIGURE_TEST", MessageType::kConfigureTest},
      {"START_TEST", MessageType::kStartTest},
      {"STOP_TEST", MessageType::kStopTest},
      {"PERF_RESULT", MessageType::kPerfResult},
      {"PROGRESS", MessageType::kProgress},
  };
  for (const auto& [text, type] : kNames) {
    if (name == text) return type;
  }
  throw std::runtime_error("Parser: unknown command '" + name + "'");
}

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

/// Does this value survive the line protocol unquoted? Space-free values
/// without quote/backslash/control characters are emitted raw, so legacy
/// receivers (and git history) see the exact pre-quoting wire format.
bool needs_quoting(const std::string& value) {
  if (value.empty()) return true;
  for (char c : value) {
    if (is_space(c) || c == '"' || c == '\\' ||
        static_cast<unsigned char>(c) < 0x20) {
      return true;
    }
  }
  return false;
}

void append_quoted(std::string& out, const std::string& value) {
  out += '"';
  for (char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  out += '"';
}

/// One whitespace-delimited token with double-quoted regions decoded in
/// place: `key="a b"` and `"ERROR reason"` are single tokens. `key_split`
/// comes back as the offset of the first '=' seen outside quotes (npos when
/// none), so callers can split key=value without re-scanning the decoded
/// text (the value may legally contain '=' and decoded spaces).
struct Token {
  std::string text;
  std::size_t key_split = std::string::npos;
};

std::optional<Token> next_token(const std::string& line, std::size_t& pos) {
  while (pos < line.size() && is_space(line[pos])) ++pos;
  if (pos >= line.size()) return std::nullopt;
  Token token;
  bool quoted = false;
  for (; pos < line.size(); ++pos) {
    const char c = line[pos];
    if (!quoted && is_space(c)) break;
    if (c == '"') {
      quoted = !quoted;
      continue;
    }
    if (quoted && c == '\\') {
      if (pos + 1 >= line.size()) {
        throw std::runtime_error("Parser: dangling escape in '" + line + "'");
      }
      const char escaped = line[++pos];
      switch (escaped) {
        case '"': token.text += '"'; break;
        case '\\': token.text += '\\'; break;
        case 'n': token.text += '\n'; break;
        case 't': token.text += '\t'; break;
        case 'r': token.text += '\r'; break;
        default:
          throw std::runtime_error(std::string("Parser: bad escape '\\") +
                                   escaped + "'");
      }
      continue;
    }
    if (!quoted && c == '=' && token.key_split == std::string::npos) {
      token.key_split = token.text.size();
    }
    token.text += c;
  }
  if (quoted) {
    throw std::runtime_error("Parser: unterminated quote in '" + line + "'");
  }
  return token;
}

}  // namespace

Message Parser::parse_command(const std::string& line) {
  std::size_t pos = 0;
  const auto command = next_token(line, pos);
  if (!command) {
    throw std::runtime_error("Parser: empty command line");
  }
  Message message;
  message.type = type_from_name(command->text);
  while (auto token = next_token(line, pos)) {
    if (token->key_split == std::string::npos || token->key_split == 0) {
      throw std::runtime_error("Parser: malformed field '" + token->text +
                               "' (expected key=value)");
    }
    message.fields[token->text.substr(0, token->key_split)] =
        token->text.substr(token->key_split + 1);
  }
  return message;
}

std::string Parser::format_message(const Message& message) {
  std::string out = to_string(message.type);
  for (const auto& [key, value] : message.fields) {
    if (key.empty() || needs_quoting(key) || key.find('=') != std::string::npos) {
      // Keys name protocol fields; one that needs quoting is a programming
      // error, not data to be smuggled through.
      throw std::invalid_argument("Parser: unformattable field key '" + key +
                                  "'");
    }
    out += ' ';
    out += key;
    out += '=';
    if (needs_quoting(value)) {
      append_quoted(out, value);
    } else {
      out += value;
    }
  }
  return out;
}

}  // namespace tracer::net
