#include "annot/annotations.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "support/diag.hpp"

namespace wcet::annot {

std::set<std::uint32_t> AnnotationDb::excluded_addrs(const std::string& mode) const {
  std::set<std::uint32_t> result(never_addrs.begin(), never_addrs.end());
  if (const auto it = mode_excludes.find(mode); it != mode_excludes.end()) {
    result.insert(it->second.begin(), it->second.end());
  }
  return result;
}

std::vector<std::string> AnnotationDb::mode_names() const {
  std::vector<std::string> names;
  names.reserve(mode_excludes.size());
  for (const auto& [name, addrs] : mode_excludes) names.push_back(name);
  return names;
}

namespace {

class Parser {
public:
  Parser(std::string_view text, const isa::Image& image) : text_(text), image_(image) {}

  AnnotationDb run() {
    AnnotationDb db;
    while (!at_end()) {
      skip_separators();
      if (at_end()) break;
      statement(db);
    }
    return db;
  }

private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw InputError("annotation line " + std::to_string(line_) + ": " + msg);
  }

  bool at_end() const { return pos_ >= text_.size(); }

  void skip_ws() {
    while (!at_end()) {
      const char c = text_[pos_];
      if (c == '#') {
        while (!at_end() && text_[pos_] != '\n') ++pos_;
      } else if (c == ' ' || c == '\t' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  void skip_separators() {
    for (;;) {
      skip_ws();
      if (!at_end() && (text_[pos_] == '\n' || text_[pos_] == ';')) {
        if (text_[pos_] == '\n') ++line_;
        ++pos_;
        continue;
      }
      break;
    }
  }

  bool statement_done() {
    skip_ws();
    return at_end() || text_[pos_] == '\n' || text_[pos_] == ';';
  }

  std::string word() {
    skip_ws();
    if (at_end() || !(std::isalpha(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '_')) {
      fail("expected keyword");
    }
    const std::size_t start = pos_;
    while (!at_end() && (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                         text_[pos_] == '_')) {
      ++pos_;
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  void expect_word(const std::string& expected) {
    const std::string got = word();
    if (got != expected) fail("expected '" + expected + "', got '" + got + "'");
  }

  bool try_punct(char c) {
    skip_ws();
    if (!at_end() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::uint64_t number() {
    skip_ws();
    if (at_end() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      fail("expected number");
    }
    std::uint64_t value = 0;
    if (pos_ + 1 < text_.size() && text_[pos_] == '0' &&
        (text_[pos_ + 1] == 'x' || text_[pos_ + 1] == 'X')) {
      pos_ += 2;
      if (at_end() || !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) fail("bad hex");
      while (!at_end() && std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
        const char c = text_[pos_++];
        const int d = std::isdigit(static_cast<unsigned char>(c))
                          ? c - '0'
                          : std::tolower(c) - 'a' + 10;
        value = value * 16 + static_cast<std::uint64_t>(d);
      }
    } else {
      while (!at_end() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        value = value * 10 + static_cast<std::uint64_t>(text_[pos_++] - '0');
      }
    }
    return value;
  }

  static std::string hex(std::uint32_t addr) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%x", addr);
    return buf;
  }

  std::string quoted() {
    skip_ws();
    if (at_end() || text_[pos_] != '"') fail("expected quoted name");
    ++pos_;
    const std::size_t start = pos_;
    while (!at_end() && text_[pos_] != '"') ++pos_;
    if (at_end()) fail("unterminated string");
    const std::string s(text_.substr(start, pos_ - start));
    ++pos_;
    return s;
  }

  // place := number | quoted-symbol [('+'|'-') number]
  std::uint32_t place() {
    skip_ws();
    if (!at_end() && text_[pos_] == '"') {
      const std::string name = quoted();
      const isa::Symbol* sym = image_.find_symbol(name);
      if (sym == nullptr) fail("unknown symbol '" + name + "'");
      std::int64_t addr = sym->addr;
      skip_ws();
      if (!at_end() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        const char sign = text_[pos_++];
        const std::uint64_t off = number();
        addr += sign == '+' ? static_cast<std::int64_t>(off) : -static_cast<std::int64_t>(off);
      }
      return static_cast<std::uint32_t>(addr);
    }
    return static_cast<std::uint32_t>(number());
  }

  void statement(AnnotationDb& db) {
    const std::string kw = word();
    if (kw == "loop") {
      expect_word("at");
      LoopBoundFact fact;
      fact.addr = place();
      expect_word("max");
      fact.max_iterations = number();
      if (!statement_done()) {
        expect_word("in");
        expect_word("mode");
        fact.mode = word();
      }
      db.loop_bounds.push_back(fact);
    } else if (kw == "recursion") {
      const std::uint32_t fn = place();
      expect_word("max");
      const auto depth = static_cast<unsigned>(number());
      // Two different depths for the same function are contradictory:
      // unlike loop bounds (where the tighter of two claims is still a
      // claim the user made), recursion depth feeds call-string
      // expansion and a silent pick would hide the conflict.
      if (const auto it = db.recursion_depths.find(fn);
          it != db.recursion_depths.end() && it->second != depth) {
        fail("contradictory recursion depth for function at " + hex(fn) + ": previously " +
             std::to_string(it->second) + ", now " + std::to_string(depth));
      }
      db.recursion_depths[fn] = depth;
    } else if (kw == "targets") {
      expect_word("at");
      const std::uint32_t site = place();
      expect_word("are");
      // A second targets statement would widen the first one's closed
      // world; merging silently is exactly the kind of contradiction
      // this parser must surface, so reject the duplicate outright.
      if (db.indirect_targets.count(site) != 0) {
        fail("duplicate targets statement for call site at " + hex(site));
      }
      std::vector<std::uint32_t>& targets = db.indirect_targets[site];
      do {
        targets.push_back(place());
      } while (try_punct(','));
    } else if (kw == "flow") {
      expect_word("at");
      const std::uint32_t addr = place();
      if (!try_punct('<') || !try_punct('=')) fail("expected '<='");
      const std::uint64_t n = number();
      if (statement_done()) {
        db.flow_caps.push_back({addr, n, {}});
      } else if (try_punct('*')) {
        expect_word("at");
        db.flow_ratios.push_back({addr, n, place()});
      } else {
        expect_word("in");
        expect_word("mode");
        db.flow_caps.push_back({addr, n, word()});
      }
    } else if (kw == "infeasible") {
      expect_word("at");
      const std::uint32_t a = place();
      expect_word("with");
      const std::uint32_t b = place();
      db.infeasible_pairs.push_back({a, b});
    } else if (kw == "mode") {
      const std::string name = word();
      expect_word("excludes");
      std::vector<std::uint32_t>& excl = db.mode_excludes[name];
      do {
        excl.push_back(place());
      } while (try_punct(','));
    } else if (kw == "never") {
      expect_word("at");
      do {
        db.never_addrs.push_back(place());
      } while (try_punct(','));
    } else if (kw == "region") {
      mem::Region region;
      region.name = quoted();
      // 'accesses ... region "<name>"' resolves by name, so a second
      // region with the same name would make those references ambiguous.
      for (const auto& existing : db.regions) {
        if (existing.name == region.name) fail("duplicate region '" + region.name + "'");
      }
      expect_word("at");
      region.base = static_cast<std::uint32_t>(number());
      expect_word("size");
      region.size = static_cast<std::uint32_t>(number());
      expect_word("read");
      region.read_latency = static_cast<unsigned>(number());
      expect_word("write");
      region.write_latency = static_cast<unsigned>(number());
      while (!statement_done()) {
        const std::string flag = word();
        if (flag == "uncached") region.cacheable = false;
        else if (flag == "io") { region.io = true; region.cacheable = false; }
        else fail("unknown region flag '" + flag + "'");
      }
      db.regions.push_back(std::move(region));
    } else if (kw == "accesses") {
      const std::uint32_t fn = place();
      skip_ws();
      const std::string what = word();
      if (what == "region") {
        const std::string name = quoted();
        // Region by name: resolve from previously declared annotation
        // regions; driver also consults the hardware map.
        for (const auto& region : db.regions) {
          if (region.name == name) {
            db.access_facts[fn].push_back({region.base, region.size});
            return;
          }
        }
        // Defer: store a marker range with size 0 keyed by name is not
        // possible here; require region declared first.
        fail("accesses statement refers to unknown region '" + name +
             "' (declare the region first, or use 'at <addr> size <n>')");
      } else if (what == "at") {
        AccessRange range;
        range.base = static_cast<std::uint32_t>(number());
        expect_word("size");
        range.size = static_cast<std::uint32_t>(number());
        db.access_facts[fn].push_back(range);
      } else {
        fail("expected 'region' or 'at' in accesses statement");
      }
    } else {
      fail("unknown statement '" + kw + "'");
    }
    if (!statement_done()) fail("trailing tokens after statement");
  }

  std::string_view text_;
  const isa::Image& image_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

} // namespace

AnnotationDb parse_annotations(std::string_view text, const isa::Image& image) {
  return Parser(text, image).run();
}

} // namespace wcet::annot
