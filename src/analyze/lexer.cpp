#include "analyze/lexer.h"

#include <cctype>

namespace csca::analyze {
namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

// Multi-character punctuators, longest first within a shared prefix so
// a linear first-match scan is a longest-match scan.
constexpr std::string_view kPuncts[] = {
    "<<=", ">>=", "->*", "...", "::", "->", "++", "--", "+=", "-=",
    "*=",  "/=",  "%=",  "&=",  "|=", "^=", "==", "!=", "<=", ">=",
    "&&",  "||",  "<<",  ">>",  "##",
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  std::vector<Token> run() {
    std::vector<Token> out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (c == '/' && peek(1) == '/') {
        out.push_back(line_comment());
        continue;
      }
      if (c == '/' && peek(1) == '*') {
        out.push_back(block_comment());
        continue;
      }
      if (c == '"') {
        out.push_back(string_lit(pos_));
        continue;
      }
      if (c == '\'') {
        out.push_back(char_lit());
        continue;
      }
      if (ident_start(c)) {
        out.push_back(identifier_or_prefixed_string(out));
        continue;
      }
      if (digit(c) || (c == '.' && digit(peek(1)))) {
        out.push_back(number());
        continue;
      }
      out.push_back(punct());
    }
    return out;
  }

 private:
  char peek(std::size_t ahead) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }

  Token make(TokKind kind, std::size_t begin, int line) const {
    return Token{kind, text_.substr(begin, pos_ - begin), line};
  }

  Token line_comment() {
    const std::size_t begin = pos_;
    const int line = line_;
    while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
    return make(TokKind::kComment, begin, line);
  }

  Token block_comment() {
    const std::size_t begin = pos_;
    const int line = line_;
    pos_ += 2;
    while (pos_ < text_.size() &&
           !(text_[pos_] == '*' && peek(1) == '/')) {
      if (text_[pos_] == '\n') ++line_;
      ++pos_;
    }
    if (pos_ < text_.size()) pos_ += 2;  // consume the closing */
    return make(TokKind::kComment, begin, line);
  }

  // pos_ sits on the opening quote; `begin` may precede it (encoding
  // prefix). Handles escapes; newlines inside (ill-formed anyway) keep
  // the line count honest.
  Token string_lit(std::size_t begin) {
    const int line = line_;
    ++pos_;  // opening quote
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      if (text_[pos_] == '\n') ++line_;
      ++pos_;
    }
    if (pos_ < text_.size()) ++pos_;  // closing quote
    return make(TokKind::kString, begin, line);
  }

  // pos_ sits on the quote of R"delim( ... )delim".
  Token raw_string(std::size_t begin) {
    const int line = line_;
    ++pos_;  // opening quote
    std::size_t d = pos_;
    while (d < text_.size() && text_[d] != '(') ++d;
    // Appended, not chained with +: GCC 12's -Wrestrict misfires on
    // the chained form at -O3.
    std::string closer = ")";
    closer += text_.substr(pos_, d - pos_);
    closer += '"';
    pos_ = d;
    while (pos_ < text_.size() &&
           text_.substr(pos_, closer.size()) != closer) {
      if (text_[pos_] == '\n') ++line_;
      ++pos_;
    }
    pos_ = pos_ < text_.size() ? pos_ + closer.size() : text_.size();
    return make(TokKind::kString, begin, line);
  }

  Token char_lit() {
    const std::size_t begin = pos_;
    const int line = line_;
    ++pos_;  // opening quote
    while (pos_ < text_.size() && text_[pos_] != '\'') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      ++pos_;
    }
    if (pos_ < text_.size()) ++pos_;
    return make(TokKind::kCharLit, begin, line);
  }

  // An identifier — unless it is a string-literal encoding prefix (R,
  // u8R, L"...", ...) glued to a quote, in which case the whole literal
  // is one string token.
  Token identifier_or_prefixed_string(const std::vector<Token>&) {
    const std::size_t begin = pos_;
    const int line = line_;
    while (pos_ < text_.size() && ident_char(text_[pos_])) ++pos_;
    const std::string_view name = text_.substr(begin, pos_ - begin);
    if (pos_ < text_.size() && text_[pos_] == '"') {
      const bool raw = !name.empty() && name.back() == 'R';
      const std::string_view prefix = raw ? name.substr(0, name.size() - 1)
                                          : name;
      if (prefix.empty() || prefix == "u8" || prefix == "u" ||
          prefix == "U" || prefix == "L") {
        return raw ? raw_string(begin) : string_lit(begin);
      }
    }
    return Token{TokKind::kIdentifier, name, line};
  }

  // Numbers, including hex floats (0x1.0p-53) and digit separators
  // (1'000'000). A sign is part of the token only right after an
  // exponent marker; a ' only when splicing digits.
  Token number() {
    const std::size_t begin = pos_;
    const int line = line_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (ident_char(c) || c == '.') {
        ++pos_;
        continue;
      }
      if (c == '\'' && ident_char(peek(1))) {
        ++pos_;
        continue;
      }
      if ((c == '+' || c == '-') && pos_ > begin) {
        const char prev = text_[pos_ - 1];
        if (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P') {
          ++pos_;
          continue;
        }
      }
      break;
    }
    return make(TokKind::kNumber, begin, line);
  }

  Token punct() {
    const std::size_t begin = pos_;
    const int line = line_;
    const std::string_view rest = text_.substr(pos_);
    for (std::string_view p : kPuncts) {
      if (rest.substr(0, p.size()) == p) {
        pos_ += p.size();
        return make(TokKind::kPunct, begin, line);
      }
    }
    ++pos_;
    return make(TokKind::kPunct, begin, line);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

}  // namespace

std::vector<Token> lex(std::string_view text) { return Lexer(text).run(); }

std::vector<Token> strip_comments(const std::vector<Token>& toks) {
  std::vector<Token> out;
  out.reserve(toks.size());
  for (const Token& t : toks) {
    if (t.kind != TokKind::kComment) out.push_back(t);
  }
  return out;
}

}  // namespace csca::analyze
