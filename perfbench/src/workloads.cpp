#include "workloads.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "mcc/runtime.hpp"
#include "support/diag.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

void emit_loop(std::ostringstream& os, const char* var, const CountedLoop& loop) {
  os << "  { int " << var << "; for (" << var << " = 0; " << var << " < "
     << loop.iters * loop.stride << "; " << var;
  if (loop.stride == 1) {
    os << "++";
  } else {
    os << " += " << loop.stride;
  }
  os << ") { s += data[(s + " << var << ") & 15]; } }\n";
}

const char* k_data = "int data[16] = {1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16};\n";

} // namespace

WideShape wide_unseeded(int functions) {
  WideShape shape;
  shape.functions.resize(static_cast<std::size_t>(functions));
  for (WideFunction& fn : shape.functions) {
    for (int l = 0; l < 3; ++l) fn.loops[l] = CountedLoop{4 + (l % 5), 1};
  }
  return shape;
}

WideShape wide_seeded(std::uint64_t seed, int functions) {
  wcet::Rng rng(seed);
  WideShape shape;
  shape.functions.resize(static_cast<std::size_t>(functions));
  for (WideFunction& fn : shape.functions) {
    for (CountedLoop& loop : fn.loops) {
      loop.iters = static_cast<int>(rng.range(3, 7));
      loop.stride = static_cast<int>(rng.range(1, 3));
    }
  }
  return shape;
}

std::string wide_source(const WideShape& shape) {
  std::ostringstream os;
  os << k_data;
  for (std::size_t f = 0; f < shape.functions.size(); ++f) {
    const WideFunction& fn = shape.functions[f];
    os << "int work" << f << "(int x) {\n  int s = x;\n";
    const char* const vars[3] = {"i0", "i1", "i2"};
    for (int l = 0; l < 3; ++l) emit_loop(os, vars[l], fn.loops[l]);
    if (fn.extra) os << "  s = s + (s >> 3);\n";
    os << "  return s;\n}\n";
  }
  os << "int main(void) {\n  int total = 0;\n";
  for (std::size_t f = 0; f < shape.functions.size(); ++f) {
    os << "  total += work" << f << "(total);\n";
  }
  os << "  return total;\n}\n";
  return os.str();
}

DeepShape deep_seeded(std::uint64_t seed) {
  wcet::Rng rng(seed);
  DeepShape shape;
  shape.f4_iters = static_cast<int>(rng.range(2, 4));
  shape.leaf_iters = static_cast<int>(rng.range(5, 7));
  shape.lite_iters = static_cast<int>(rng.range(1, 2));
  shape.threshold = static_cast<int>(rng.range(1, 9));
  shape.leaf_cap = static_cast<int>(rng.range(17, 24));
  return shape;
}

std::string deep_source(const DeepShape& shape) {
  std::ostringstream os;
  os << "int input[8] = {0, 0, 0, 0, 0, 0, 0, 0};\n" << k_data;
  os << "int leaf(int x) {\n  int s = x;\n";
  emit_loop(os, "a", CountedLoop{shape.leaf_iters, 1});
  emit_loop(os, "b", CountedLoop{shape.leaf_iters, 1});
  os << "  return s;\n}\n";
  os << "int lite(int x) {\n  int s = x;\n";
  emit_loop(os, "c", CountedLoop{shape.lite_iters, 1});
  os << "  return s;\n}\n";
  os << "int f4(int x) {\n  int s = x;\n";
  emit_loop(os, "j", CountedLoop{shape.f4_iters, 1});
  os << "  if (input[s & 7] > " << shape.threshold
     << ") { s += leaf(s); } else { s += lite(s); }\n";
  os << "  return s;\n}\n";
  for (int level = 3; level >= 1; --level) {
    os << "int f" << level << "(int x) {\n  int s = x;\n";
    os << "  s += f" << level + 1 << "(s);\n  s += f" << level + 1 << "(s + 1);\n";
    os << "  return s;\n}\n";
  }
  os << "int main(void) {\n  int v = input[0];\n  v += f1(v);\n  v += f1(v + 2);\n"
     << "  return v;\n}\n";
  return os.str();
}

std::string deep_annotations(const DeepShape& shape, const wcet::isa::Image& image) {
  const wcet::isa::Symbol* input = image.find_symbol("input");
  WCET_CHECK(input != nullptr, "deep shape: no `input` symbol in the image");
  std::ostringstream os;
  os << "region \"inputs\" at " << input->addr << " size 32 read 2 write 2 io\n";
  os << "flow at \"leaf\" <= " << shape.leaf_cap << "\n";
  return os.str();
}

ServeStream serve_stream(std::uint64_t seed, int functions, int steps) {
  wcet::Rng rng(seed);
  ServeStream stream;
  WideShape state = wide_seeded(rng.next_u64(), functions);

  // Request kinds in seeded order: 70% edits, 20% hits, 10% layout.
  std::vector<char> kinds;
  const int hits = steps / 5;
  const int layouts = (steps / 10) & ~1; // even: on/off pairs
  for (int i = 0; i < steps; ++i) {
    kinds.push_back(i < hits ? 'h' : i < hits + layouts ? 'l' : 'w');
  }
  for (std::size_t i = kinds.size(); i > 1; --i) {
    std::swap(kinds[i - 1], kinds[rng.below(static_cast<std::uint32_t>(i))]);
  }

  std::map<std::string, int> index_of;
  std::vector<int> history; // images in submission order
  const auto submit_state = [&] {
    const std::string source = wide_source(state);
    auto it = index_of.find(source);
    if (it == index_of.end()) {
      it = index_of.emplace(source, static_cast<int>(stream.images.size())).first;
      stream.images.push_back(state);
    }
    stream.steps.push_back(it->second);
    history.push_back(it->second);
  };
  const auto fn_count = static_cast<std::uint32_t>(functions);
  std::vector<std::uint32_t> toggled;
  for (const char kind : kinds) {
    if (kind == 'h' && !history.empty()) {
      const std::uint32_t back =
          rng.below(static_cast<std::uint32_t>(std::min<std::size_t>(3, history.size())));
      const int image = history[history.size() - 1 - back];
      stream.steps.push_back(image);
      history.push_back(image);
      continue;
    }
    if (kind == 'l') {
      std::uint32_t f = 0;
      if (toggled.empty()) {
        f = rng.below(fn_count);
        toggled.push_back(f);
      } else {
        f = toggled.back();
        toggled.pop_back();
      }
      state.functions[f].extra = !state.functions[f].extra;
      submit_state();
      continue;
    }
    // One loop bound of one function changes to a value that yields an
    // image not submitted before (so it cannot hit the report cache).
    for (int attempt = 0; attempt < 64; ++attempt) {
      CountedLoop& loop = state.functions[rng.below(fn_count)].loops[rng.below(3)];
      const int old_iters = loop.iters;
      loop.iters = static_cast<int>(rng.range(3, 7));
      if (loop.iters != old_iters && index_of.count(wide_source(state)) == 0) break;
      loop.iters = old_iters;
    }
    submit_state();
  }
  return stream;
}

wcet::isa::Image compile(const std::string& source) {
  return wcet::mcc::compile_program(source).image;
}

} // namespace perfbench
