#include "core/serialization.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace oct {

namespace {

/// Item ids are 32-bit, so a universe holds at most 2^32 of them.
constexpr uint64_t kMaxUniverse = uint64_t{1} << 32;

bool IsLabelSafe(char ch) {
  return ch != ' ' && ch != '%' && ch != '\n' && ch != '\r' && ch != '\t' &&
         static_cast<unsigned char>(ch) >= 0x20;
}

int HexValue(char ch) {
  if (ch >= '0' && ch <= '9') return ch - '0';
  if (ch >= 'a' && ch <= 'f') return ch - 'a' + 10;
  if (ch >= 'A' && ch <= 'F') return ch - 'A' + 10;
  return -1;
}

/// Splits a line into space-separated tokens.
std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : line) {
    if (ch == ' ') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += ch;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

/// Parses all of `s` as a finite T: fails on junk, a trailing remainder, a
/// '+' sign, a '-' sign on an unsigned T, overflow, nan and inf.
template <typename T>
Result<T> ParseNumber(const std::string& s) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v)) {
    return Status::InvalidArgument("bad number: " + s);
  }
  return v;
}

/// Shortest decimal rendering that round-trips the double exactly.
std::string FormatDouble(double v) {
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

std::string EscapeLabel(const std::string& label) {
  if (label.empty()) return "-";
  if (label == "-") return "%2D";  // Disambiguate from the empty sentinel.
  std::string out;
  out.reserve(label.size());
  for (char ch : label) {
    if (IsLabelSafe(ch)) {
      out += ch;
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X",
                    static_cast<unsigned char>(ch));
      out += buf;
    }
  }
  return out;
}

std::string UnescapeLabel(const std::string& escaped) {
  if (escaped == "-") return "";
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '%' && i + 2 < escaped.size()) {
      const int hi = HexValue(escaped[i + 1]);
      const int lo = HexValue(escaped[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
        continue;
      }
    }
    out += escaped[i];
  }
  return out;
}

std::string SerializeInput(const OctInput& input) {
  std::ostringstream out;
  out << "octree-input v1\n";
  out << "universe " << input.universe_size() << "\n";
  if (input.HasRelaxedBounds()) {
    out << "bounds";
    for (uint32_t b : input.item_bounds()) out << " " << b;
    out << "\n";
  }
  for (const auto& set : input.sets()) {
    out << "set " << FormatDouble(set.weight) << " ";
    if (set.delta_override >= 0.0) {
      out << FormatDouble(set.delta_override);
    } else {
      out << "-";
    }
    out << " " << EscapeLabel(set.label) << " :";
    for (ItemId item : set.items) out << " " << item;
    out << "\n";
  }
  return out.str();
}

Result<OctInput> ParseInput(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "octree-input v1") {
    return Status::InvalidArgument("missing octree-input v1 header");
  }
  OctInput input;
  while (std::getline(in, line)) {
    const auto toks = Tokens(line);
    if (toks.empty()) continue;  // A blank line.
    if (toks[0] == "universe") {
      if (toks.size() != 2) return Status::InvalidArgument("bad universe line");
      auto n = ParseNumber<uint64_t>(toks[1]);
      if (!n.ok()) return n.status();
      if (*n > kMaxUniverse) return Status::InvalidArgument("universe > 2^32");
      input.set_universe_size(static_cast<size_t>(*n));
    } else if (toks[0] == "bounds") {
      std::vector<uint32_t> bounds;
      for (size_t i = 1; i < toks.size(); ++i) {
        auto b = ParseNumber<uint32_t>(toks[i]);
        if (!b.ok()) return b.status();
        bounds.push_back(*b);
      }
      input.set_item_bounds(std::move(bounds));
    } else if (toks[0] == "set") {
      if (toks.size() < 5 || toks[4] != ":") {
        return Status::InvalidArgument("bad set line: " + line);
      }
      CandidateSet cs;
      auto w = ParseNumber<double>(toks[1]);
      if (!w.ok()) return w.status();
      cs.weight = *w;
      if (toks[2] != "-") {
        auto d = ParseNumber<double>(toks[2]);
        if (!d.ok()) return d.status();
        cs.delta_override = *d;
      }
      cs.label = UnescapeLabel(toks[3]);
      std::vector<ItemId> items;
      for (size_t i = 5; i < toks.size(); ++i) {
        auto item = ParseNumber<ItemId>(toks[i]);
        if (!item.ok()) return item.status();
        items.push_back(*item);
      }
      cs.items = ItemSet(std::move(items));
      input.Add(std::move(cs));
    } else {
      return Status::InvalidArgument("unknown record: " + toks[0]);
    }
  }
  OCT_RETURN_NOT_OK(input.Validate());
  return input;
}

std::string SerializeTree(const CategoryTree& tree) {
  // Compact ids without mutating the input: pre-order remap.
  const auto order = tree.PreOrder();
  std::vector<NodeId> remap(tree.num_nodes(), kInvalidNode);
  for (size_t i = 0; i < order.size(); ++i) {
    remap[order[i]] = static_cast<NodeId>(i);
  }
  std::ostringstream out;
  out << "octree-tree v1\n";
  out << "nodes " << order.size() << "\n";
  for (NodeId id : order) {
    const CategoryNode& n = tree.node(id);
    out << "node " << remap[id] << " ";
    if (n.parent == kInvalidNode) {
      out << "-";
    } else {
      out << remap[n.parent];
    }
    out << " ";
    if (n.source_set == kInvalidSet) {
      out << "-";
    } else {
      out << n.source_set;
    }
    out << " " << EscapeLabel(n.label) << " :";
    for (ItemId item : n.direct_items) out << " " << item;
    out << "\n";
  }
  return out.str();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace oct
