#include "graph/graph.h"

#include <algorithm>
#include <sstream>

namespace gdx {

namespace {
const std::vector<Value>& EmptyValueList() {
  static const std::vector<Value>* empty = new std::vector<Value>();
  return *empty;
}

const std::vector<std::pair<Value, Value>>& EmptyPairList() {
  static const std::vector<std::pair<Value, Value>>* empty =
      new std::vector<std::pair<Value, Value>>();
  return *empty;
}

uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

void Graph::ReserveFor(size_t num_nodes, size_t num_edges) {
  nodes_.reserve(num_nodes);
  node_set_.reserve(num_nodes);
  edges_.reserve(num_edges);
  edge_set_.reserve(num_edges);
  // Adjacency maps hold at most one entry per edge endpoint.
  successors_.reserve(num_edges);
  predecessors_.reserve(num_edges);
}

void Graph::AddNode(Value v) {
  if (node_set_.insert(v.raw()).second) {
    nodes_.push_back(v);
  }
}

bool Graph::AddEdge(Value src, SymbolId label, Value dst) {
  AddNode(src);
  AddNode(dst);
  EdgeKey key{src.raw(), label, dst.raw()};
  if (!edge_set_.insert(key).second) return false;
  edges_.push_back(Edge{src, label, dst});
  successors_[NodeLabelKey{src.raw(), label}].push_back(dst);
  predecessors_[NodeLabelKey{dst.raw(), label}].push_back(src);
  label_index_[label].emplace_back(src, dst);
  return true;
}

bool Graph::HasEdge(Value src, SymbolId label, Value dst) const {
  return edge_set_.count(EdgeKey{src.raw(), label, dst.raw()}) > 0;
}

const std::vector<Value>& Graph::Successors(Value v, SymbolId a) const {
  auto it = successors_.find(NodeLabelKey{v.raw(), a});
  return it == successors_.end() ? EmptyValueList() : it->second;
}

const std::vector<Value>& Graph::Predecessors(Value v, SymbolId a) const {
  auto it = predecessors_.find(NodeLabelKey{v.raw(), a});
  return it == predecessors_.end() ? EmptyValueList() : it->second;
}

const std::vector<std::pair<Value, Value>>& Graph::EdgesWithLabel(
    SymbolId a) const {
  auto it = label_index_.find(a);
  return it == label_index_.end() ? EmptyPairList() : it->second;
}

std::pair<uint64_t, uint64_t> Graph::ContentHash() const {
  // Sum/xor of well-mixed per-element hashes: insertion-order independent,
  // and node/edge sets are duplicate-free so multiset effects cannot occur.
  uint64_t sum = 0x6a09e667f3bcc908ull + nodes_.size();
  uint64_t xr = 0xbb67ae8584caa73bull ^ (edges_.size() << 32);
  for (Value v : nodes_) {
    uint64_t h = Mix64(v.raw() + 0x9e3779b97f4a7c15ull);
    sum += h;
    xr ^= Mix64(h + 1);
  }
  for (const Edge& e : edges_) {
    uint64_t h = Mix64(e.src.raw());
    h = Mix64(h ^ (static_cast<uint64_t>(e.label) + 0x9e3779b97f4a7c15ull));
    h = Mix64(h ^ e.dst.raw());
    sum += h;
    xr ^= Mix64(h + 2);
  }
  return {sum, xr};
}

std::string Graph::RawSignature() const {
  auto append_u64 = [](std::string& out, uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<char>(x & 0xff));
      x >>= 8;
    }
  };
  std::vector<std::string> parts;
  parts.reserve(nodes_.size() + edges_.size());
  for (Value v : nodes_) {
    std::string part(1, 'n');
    append_u64(part, v.raw());
    parts.push_back(std::move(part));
  }
  for (const Edge& e : edges_) {
    std::string part(1, 'e');
    append_u64(part, e.src.raw());
    append_u64(part, e.label);
    append_u64(part, e.dst.raw());
    parts.push_back(std::move(part));
  }
  std::sort(parts.begin(), parts.end());
  std::string out;
  out.reserve(32 + parts.size() * 25);
  auto [sum, xr] = ContentHash();
  append_u64(out, sum);
  append_u64(out, xr);
  append_u64(out, nodes_.size());
  append_u64(out, edges_.size());
  for (const std::string& part : parts) out += part;
  return out;
}

void Graph::Clear() {
  nodes_.clear();
  node_set_.clear();
  edges_.clear();
  edge_set_.clear();
  successors_.clear();
  predecessors_.clear();
  label_index_.clear();
}

std::string Graph::ToString(const Universe& universe,
                            const Alphabet& alphabet) const {
  std::ostringstream out;
  out << "graph {" << num_nodes() << " nodes, " << num_edges()
      << " edges}\n";
  for (const Edge& e : edges_) {
    out << "  " << universe.NameOf(e.src) << " -" << alphabet.NameOf(e.label)
        << "-> " << universe.NameOf(e.dst) << "\n";
  }
  return out.str();
}

std::string Graph::Signature(const Universe& universe,
                             const Alphabet& alphabet) const {
  std::vector<std::string> parts;
  parts.reserve(edges_.size() + nodes_.size());
  for (const Edge& e : edges_) {
    parts.push_back(universe.NameOf(e.src) + "," +
                    alphabet.NameOf(e.label) + "," +
                    universe.NameOf(e.dst));
  }
  // Isolated nodes participate in the signature too.
  for (Value v : nodes_) {
    bool isolated = true;
    for (const Edge& e : edges_) {
      if (e.src == v || e.dst == v) {
        isolated = false;
        break;
      }
    }
    if (isolated) parts.push_back("node:" + universe.NameOf(v));
  }
  std::sort(parts.begin(), parts.end());
  std::ostringstream out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out << ";";
    out << parts[i];
  }
  return out.str();
}

}  // namespace gdx
