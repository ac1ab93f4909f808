#include "isa/image.hpp"

#include <algorithm>
#include <sstream>

#include "support/diag.hpp"

namespace wcet::isa {

void Image::add_section(Section section) {
  // Section::end() is a 32-bit address: a section reaching 2^32 would
  // wrap it to a small value and break every containment check.
  if (section.bytes.size() > std::uint64_t{0xFFFFFFFFu} - section.vaddr) {
    throw InputError("section '" + section.name + "' extends past the 32-bit address space");
  }
  for (const auto& existing : sections_) {
    const bool overlaps =
        section.vaddr < existing.end() && existing.vaddr < section.end();
    if (overlaps && !section.bytes.empty() && !existing.bytes.empty()) {
      throw InputError("section '" + section.name + "' overlaps '" + existing.name + "'");
    }
  }
  sections_.push_back(std::move(section));
}

void Image::add_symbol(Symbol symbol) { symbols_.push_back(std::move(symbol)); }

const Section* Image::section_at(std::uint32_t addr) const {
  for (const auto& s : sections_) {
    if (s.contains(addr)) return &s;
  }
  return nullptr;
}

const Symbol* Image::find_symbol(const std::string& name) const {
  for (const auto& s : symbols_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const Symbol* Image::symbol_covering(std::uint32_t addr) const {
  const Symbol* best = nullptr;
  for (const auto& s : symbols_) {
    const std::uint32_t size = std::max<std::uint32_t>(s.size, 1);
    if (addr < s.addr || addr >= s.addr + size) continue;
    if (best == nullptr || s.addr > best->addr ||
        (s.addr == best->addr && s.kind == Symbol::Kind::function)) {
      best = &s;
    }
  }
  return best;
}

std::string Image::describe(std::uint32_t addr) const {
  std::ostringstream os;
  if (const Symbol* sym = symbol_covering(addr)) {
    os << sym->name;
    if (addr != sym->addr) os << "+0x" << std::hex << (addr - sym->addr);
    return os.str();
  }
  os << "0x" << std::hex << addr;
  return os.str();
}

std::optional<std::uint32_t> Image::read_word(std::uint32_t addr) const {
  const Section* s = section_at(addr);
  if (s == nullptr) return std::nullopt;
  return s->read_word(addr);
}

std::optional<std::uint8_t> Image::read_byte(std::uint32_t addr) const {
  const Section* s = section_at(addr);
  if (s == nullptr) return std::nullopt;
  return s->bytes[addr - s->vaddr];
}

} // namespace wcet::isa
