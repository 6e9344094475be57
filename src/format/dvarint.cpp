#include "format/dvarint.h"

#include <algorithm>
#include <limits>

namespace blaze::format {

namespace {

std::vector<std::uint32_t> degrees_of(const graph::Csr& g) {
  std::vector<std::uint32_t> degrees(g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) degrees[v] = g.degree(v);
  return degrees;
}

}  // namespace

DvarintAdjacency encode_dvarint(const graph::Csr& g) {
  DvarintAdjacency out;
  out.enc_lengths.resize(g.num_vertices());
  out.bytes.reserve(g.num_edges() * 2);  // power-law lists land near 2 B/edge

  auto record_carry = [&](std::uint64_t page, std::uint32_t partial_acc,
                          std::uint32_t partial_shift, std::uint32_t prev,
                          std::uint32_t done) {
    if (out.carries.size() <= page) out.carries.resize(page + 1);
    out.carries[page] = PageCarry{partial_acc, prev, done, partial_shift};
  };

  std::vector<vertex_t> sorted;
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    sorted.assign(nbrs.begin(), nbrs.end());
    std::sort(sorted.begin(), sorted.end());

    const std::uint64_t start = out.bytes.size();
    std::uint32_t prev = 0;   // last fully-encoded neighbor (absolute)
    std::uint32_t done = 0;   // neighbors fully encoded so far
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      // First value absolute, then gaps (lists are sorted, so gaps are
      // non-negative; duplicate edges encode as gap 0).
      std::uint32_t rem = (i == 0) ? sorted[0] : sorted[i] - prev;
      // Mirror of the decoder's partial state for the varint being
      // written, snapshotted into the carry at each page boundary.
      std::uint32_t pacc = 0, pshift = 0;
      for (;;) {
        std::uint8_t b = rem & 0x7fu;
        rem >>= 7;
        if (rem != 0) b |= 0x80u;
        const std::uint64_t pos = out.bytes.size();
        if ((pos % kPageSize) == 0 && pos > start) {
          record_carry(pos / kPageSize, pacc, pshift, prev, done);
        }
        out.bytes.push_back(static_cast<std::byte>(b));
        pacc |= (static_cast<std::uint32_t>(b) & 0x7fu) << pshift;
        pshift += 7;
        if (rem == 0) break;
      }
      prev = sorted[i];
      ++done;
    }
    const std::uint64_t enc_len = out.bytes.size() - start;
    BLAZE_CHECK(enc_len <= std::numeric_limits<std::uint32_t>::max(),
                "encoded adjacency list exceeds 32-bit byte length");
    out.enc_lengths[v] = static_cast<std::uint32_t>(enc_len);
  }

  out.encoded_bytes = out.bytes.size();
  out.bytes.resize(round_up<std::uint64_t>(
      std::max<std::uint64_t>(out.bytes.size(), 1), kPageSize));
  out.carries.resize(out.bytes.size() / kPageSize);
  return out;
}

GraphIndex make_dvarint_index(const graph::Csr& g, DvarintAdjacency& enc) {
  return GraphIndex(degrees_of(g), std::move(enc.enc_lengths),
                    std::move(enc.carries));
}

std::vector<vertex_t> decode_dvarint_list(const std::byte* data,
                                          std::uint32_t enc_length,
                                          std::uint32_t degree) {
  std::vector<vertex_t> out;
  out.reserve(degree);
  const std::byte* p = data;
  const std::byte* pe = data + enc_length;
  std::uint32_t acc = 0, shift = 0, prev = 0;
  while (p < pe && out.size() < degree) {
    if (shift > 28) break;  // > 5 bytes: corrupt, rejected below
    const auto b = static_cast<std::uint32_t>(*p++);
    acc |= (b & 0x7fu) << shift;
    shift += 7;
    if (b & 0x80u) continue;
    const vertex_t nb = out.empty() ? acc : prev + acc;
    out.push_back(nb);
    prev = nb;
    acc = 0;
    shift = 0;
  }
  BLAZE_CHECK(out.size() == degree && p == pe,
              "corrupt dvarint list: length/degree mismatch");
  return out;
}

}  // namespace blaze::format
