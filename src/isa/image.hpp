// Executable image: the unit the analyzer and the simulators consume.
// Models a fully linked embedded binary — sections placed at absolute
// addresses, a symbol table, and one or more task entry points (the
// paper, footnote 3: "a task (usually) corresponds to a specific entry
// point of the analyzed binary executable").
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace wcet::isa {

struct Section {
  std::string name;
  std::uint32_t vaddr = 0;
  std::vector<std::uint8_t> bytes;
  bool writable = false;
  bool executable = false;

  std::uint32_t end() const { return vaddr + static_cast<std::uint32_t>(bytes.size()); }
  bool contains(std::uint32_t addr) const { return addr >= vaddr && addr < end(); }
  // The little-endian word at `addr`, if all four bytes lie here. No
  // section reaches 2^32 (Image::add_section), so a word whose last
  // byte wraps past it is never contained. Inline: it is the decoder's
  // instruction fetch.
  std::optional<std::uint32_t> read_word(std::uint32_t addr) const {
    if (!contains(addr) || !contains(addr + 3)) return std::nullopt;
    const std::size_t off = addr - vaddr;
    return static_cast<std::uint32_t>(bytes[off]) |
           (static_cast<std::uint32_t>(bytes[off + 1]) << 8) |
           (static_cast<std::uint32_t>(bytes[off + 2]) << 16) |
           (static_cast<std::uint32_t>(bytes[off + 3]) << 24);
  }
  bool operator==(const Section&) const = default;
};

struct Symbol {
  enum class Kind { function, object, label };
  std::string name;
  std::uint32_t addr = 0;
  std::uint32_t size = 0;
  Kind kind = Kind::label;
  bool operator==(const Symbol&) const = default;
};

class Image {
public:
  void add_section(Section section);
  void add_symbol(Symbol symbol);
  void set_entry(std::uint32_t addr) { entry_ = addr; }

  std::uint32_t entry() const { return entry_; }
  std::span<const Section> sections() const { return sections_; }
  std::span<const Symbol> symbols() const { return symbols_; }

  const Section* section_at(std::uint32_t addr) const;
  const Symbol* find_symbol(const std::string& name) const;
  // Innermost symbol covering `addr` (functions preferred over labels).
  const Symbol* symbol_covering(std::uint32_t addr) const;
  // Name for an address: "func", "func+0x12", or "0x...." if unknown.
  std::string describe(std::uint32_t addr) const;

  std::optional<std::uint32_t> read_word(std::uint32_t addr) const;
  std::optional<std::uint8_t> read_byte(std::uint32_t addr) const;

  // Exact structural equality: entry, every section (name, placement,
  // flags, bytes) and every symbol, in order.
  bool operator==(const Image&) const = default;

private:
  std::vector<Section> sections_;
  std::vector<Symbol> symbols_;
  std::uint32_t entry_ = 0;
};

} // namespace wcet::isa
