#include "core/match_backend.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <string_view>

#include "obs/macros.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define EF_MATCH_X86 1
#include <immintrin.h>
#else
#define EF_MATCH_X86 0
#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#endif

namespace ef::core {

bool cpu_supports_avx2() noexcept {
  // Probed once per process. EVOFORECAST_MATCH_CPU=baseline masks the probe
  // so the SSE2 kernels can be exercised on modern hardware (the CI
  // masked-cpuid step does exactly that).
  static const bool supported = [] {
#if EF_MATCH_X86
    if (const char* cpu = std::getenv("EVOFORECAST_MATCH_CPU");
        cpu != nullptr && std::string_view(cpu) == "baseline") {
      return false;
    }
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
  }();
  return supported;
}

namespace {

/// One-time "which backend actually runs" breadcrumb: an event plus a
/// counter, emitted the first time a backend is resolved in this process.
/// fleet_smoke.py and test_obs_events assert on the event; efstat surfaces
/// the counter.
void note_backend_selected(MatchBackend selected, bool avx2) {
#if EVOFORECAST_OBS_ENABLED
  static std::atomic<bool> seen{false};
  if (seen.exchange(true, std::memory_order_relaxed)) return;
  EVOFORECAST_EVENT("match.backend_selected", {"backend", to_string(selected)},
                    {"avx2_supported", avx2});
  EVOFORECAST_COUNT("match.backend.auto.selected", 1);
#else
  (void)selected;
  (void)avx2;
#endif
}

}  // namespace

MatchBackend resolve_match_backend(MatchBackend configured) {
  note_backend_selected(configured, cpu_supports_avx2());
  return configured;
}

std::uint8_t quantize_value(double v, double qmin, double qinv) noexcept {
  const double scaled = std::floor((v - qmin) * qinv);
  // NaN (a NaN value, inf·0 or 0·inf) must not reach the cast: converting
  // NaN to an integer is undefined behaviour.
  if (!(scaled == scaled)) return 0;
  return static_cast<std::uint8_t>(std::clamp(scaled, 0.0, 255.0));
}

RulePlanes build_rule_planes(std::span<const std::span<const Interval>> rule_genes,
                             std::size_t window, double qmin, double qinv) {
  // Lane padding matches the widest SIMD path (AVX2, 32 rules per vector);
  // 32 is a multiple of the SSE2 lane count, so both paths read full vectors.
  constexpr std::size_t kLane = 32;
  RulePlanes p;
  p.rule_count = rule_genes.size();
  p.window = window;
  p.padded = (p.rule_count + kLane - 1) / kLane * kLane;
  p.padded_genes = (window + 3) / 4 * 4;
  p.qmin = qmin;
  p.qinv = qinv;
  if (p.rule_count == 0) return p;

  // Padding lanes and inactive rules keep the impossible range lo=255 /
  // hi=0 — no byte satisfies both bounds, so they can never surface as
  // candidates and the kernels need no per-lane activity check.
  p.qlo.assign(window * p.padded, 255);
  p.qhi.assign(window * p.padded, 0);
  // Wildcard mask as a double bit pattern the vector verifier can OR into
  // its comparison mask. vlo/vhi for wildcard (and padding) gene lanes are
  // never consulted — the mask passes them unconditionally.
  const double kWildAll = std::bit_cast<double>(~std::uint64_t{0});
  p.vlo.assign(p.rule_count * p.padded_genes, 0.0);
  p.vhi.assign(p.rule_count * p.padded_genes, 0.0);
  p.wmask.assign(p.rule_count * p.padded_genes, 0.0);
  p.active.assign(p.rule_count, 0);

  for (std::size_t r = 0; r < p.rule_count; ++r) {
    const std::span<const Interval> genes = rule_genes[r];
    double* vlo = p.vlo.data() + r * p.padded_genes;
    double* vhi = p.vhi.data() + r * p.padded_genes;
    double* wm = p.wmask.data() + r * p.padded_genes;
    for (std::size_t j = window; j < p.padded_genes; ++j) wm[j] = kWildAll;
    if (genes.size() != window) continue;  // dimension mismatch: matches nothing
    p.active[r] = 1;
    for (std::size_t j = 0; j < window; ++j) {
      if (genes[j].is_wildcard()) {
        p.qlo[j * p.padded + r] = 0;
        p.qhi[j * p.padded + r] = 255;
        wm[j] = kWildAll;
      } else {
        p.qlo[j * p.padded + r] = quantize_value(genes[j].lo(), qmin, qinv);
        p.qhi[j * p.padded + r] = quantize_value(genes[j].hi(), qmin, qinv);
        vlo[j] = genes[j].lo();
        vhi[j] = genes[j].hi();
      }
    }
  }
  return p;
}

namespace matchkern {

namespace {

/// Byte-column compress of one block: write every i in [begin, end) with
/// qlo <= qc[i] <= qhi into `cand`, ascending; return how many. `cand` must
/// hold at least end − begin indices. Reads 1/8th the memory of the double
/// column and, with SSE2, tests 16 windows per compare — candidate indices
/// are extracted from the 16-bit movemask, so sparse masks cost almost
/// nothing beyond the streaming compare.
std::size_t byte_compress_block(const std::uint8_t* qc, std::uint8_t qlo,
                                std::uint8_t qhi, std::size_t begin,
                                std::size_t end, std::size_t* cand) {
  std::size_t w = 0;
  std::size_t i = begin;
#if EF_MATCH_X86 || defined(__SSE2__)
  // Unsigned byte range test without epu8 compares (SSE2 has none):
  // v >= lo  <=>  max(v, lo) == v, and v <= hi  <=>  min(v, hi) == v.
  const __m128i vlo = _mm_set1_epi8(static_cast<char>(qlo));
  const __m128i vhi = _mm_set1_epi8(static_cast<char>(qhi));
  for (; i + 16 <= end; i += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(qc + i));
    const __m128i ge = _mm_cmpeq_epi8(_mm_max_epu8(v, vlo), v);
    const __m128i le = _mm_cmpeq_epi8(_mm_min_epu8(v, vhi), v);
    unsigned mask = static_cast<unsigned>(_mm_movemask_epi8(_mm_and_si128(ge, le)));
    while (mask) {
      cand[w++] = i + static_cast<unsigned>(__builtin_ctz(mask));
      mask &= mask - 1;
    }
  }
#endif
  for (; i < end; ++i) {
    cand[w] = i;
    w += static_cast<std::size_t>((qc[i] >= qlo) & (qc[i] <= qhi));
  }
  return w;
}

/// Relax a double bound through the quantization map. floor() and the
/// multiply are monotone, so clamp(⌊(b − qmin)·qinv⌋) applied to both gene
/// edges brackets every byte a passing value could quantize to.
inline std::uint8_t quantize_bound(double b, double qmin, double qinv) {
  return quantize_value(b, qmin, qinv);
}

/// Exact double verification of one rule against one row-major window —
/// the paper's comparisons lo <= v && v <= hi (wildcards accept
/// anything, including NaN; bounded genes reject NaN because both
/// comparisons are false). The wildcard flag lives in `wmask` as an all-ones
/// bit pattern (see build_rule_planes) so this and the AVX2 verifier below
/// read the same rows.
inline bool verify_rule_row(const RulePlanes& p, std::size_t r, const double* row) {
  const std::size_t pg = p.padded_genes;
  const double* lo = p.vlo.data() + r * pg;
  const double* hi = p.vhi.data() + r * pg;
  const double* wm = p.wmask.data() + r * pg;
  unsigned ok = 1;
  for (std::size_t j = 0; j < p.window; ++j) {
    const double v = row[j];
    ok &= static_cast<unsigned>(std::bit_cast<std::uint64_t>(wm[j]) != 0) |
          static_cast<unsigned>((v >= lo[j]) & (v <= hi[j]));
  }
  return ok != 0;
}

#if EF_MATCH_X86
/// AVX2 load mask for the tail gene chunk: lanes < rem pass the maskload,
/// the rest read as 0.0 (and are accepted via the padding wmask lanes).
__attribute__((target("avx2"))) inline __m256i tail_gene_mask(std::size_t rem) {
  return _mm256_setr_epi64x(rem > 0 ? -1 : 0, rem > 1 ? -1 : 0, rem > 2 ? -1 : 0, 0);
}

/// Vectorized exact verification: four gene lanes per compare, identical
/// double comparisons to verify_rule_row (_CMP_GE_OQ / _CMP_LE_OQ are the
/// IEEE ordered-quiet >= / <= that C++ `>=` / `<=` perform, so NaN rejects
/// in bounded lanes exactly as in verify_rule_row), wildcard and padding
/// lanes forced passing by OR-ing the all-ones wmask. The tail chunk uses a
/// maskload so rows at the end of the buffer are never read past `window`.
__attribute__((target("avx2"))) inline bool verify_row_avx2(
    const double* row, const double* vlo, const double* vhi, const double* wm,
    std::size_t window, __m256i tail_mask) {
  std::size_t j = 0;
  const std::size_t full = window & ~std::size_t{3};
  for (; j < full; j += 4) {
    const __m256d v = _mm256_loadu_pd(row + j);
    const __m256d ge = _mm256_cmp_pd(v, _mm256_loadu_pd(vlo + j), _CMP_GE_OQ);
    const __m256d le = _mm256_cmp_pd(v, _mm256_loadu_pd(vhi + j), _CMP_LE_OQ);
    const __m256d ok = _mm256_or_pd(_mm256_and_pd(ge, le), _mm256_loadu_pd(wm + j));
    if (_mm256_movemask_pd(ok) != 0xF) return false;
  }
  if (j < window) {
    const __m256d v = _mm256_maskload_pd(row + j, tail_mask);
    const __m256d ge = _mm256_cmp_pd(v, _mm256_loadu_pd(vlo + j), _CMP_GE_OQ);
    const __m256d le = _mm256_cmp_pd(v, _mm256_loadu_pd(vhi + j), _CMP_LE_OQ);
    const __m256d ok = _mm256_or_pd(_mm256_and_pd(ge, le), _mm256_loadu_pd(wm + j));
    if (_mm256_movemask_pd(ok) != 0xF) return false;
  }
  return true;
}

/// Fused multi-gene byte scan — the AVX2 prefilter body. Instead of scanning
/// one byte column and gathering scattered rows for the rest, every bound
/// gene's byte column is streamed 32 windows per compare, narrowest gene
/// first with an early exit once a 32-window block is dead. Two masks are
/// built in the same pass from the same loads:
///
///   acc  — relaxed pass, byte in [q(lo), q(hi)]: the candidate superset.
///   cert — strict interior, byte in (q(lo), q(hi)): certain matches.
///
/// The byte map q(v) = clamp(⌊(v − qmin)·qinv⌋) is monotone (subtract,
/// multiply, floor and clamp all preserve order), so b > q(lo) ⇒ v > lo and
/// b < q(hi) ⇒ v < hi — a window strictly interior in every bound gene
/// matches with certainty and never touches the double rows. Only boundary
/// bytes (b == q(lo) or b == q(hi)) are ambiguous and take the exact AVX2
/// row verification, which restores the exact match set.
/// NaN quantizes to byte 0, never strictly above q(lo) ≥ 0, so NaN in a
/// bound gene is either rejected by the byte scan or sent to the exact check
/// which rejects it; wildcard genes are not scanned and accept everything,
/// NaN included. The strict bounds saturate (q(lo)+1, q(hi)−1), so empty
/// interiors (q(lo) == q(hi), or bounds at 0/255) simply mean every
/// candidate verifies exactly — correct, just slower.
__attribute__((target("avx2"))) void fused_byte_match_avx2(
    const LagMajorView& view, const std::size_t* ord, const std::uint8_t* qlo_ord,
    const std::uint8_t* qhi_ord, std::size_t bound_count, const double* vlo,
    const double* vhi, const double* wm, std::size_t begin, std::size_t end,
    std::vector<std::size_t>& out, std::size_t* pruned_out) {
  const std::size_t d = view.window;
  const double* rows = view.rows;
  const __m256i tail = tail_gene_mask(d & 3);

  // Column pointers plus saturated strict-interior byte bounds per bound
  // gene. Broadcasts happen in the scan loop (one vpbroadcastb per gene per
  // 32-window block — noise) so no __m256i lives in a container.
  const std::uint8_t* col_stack[64];
  std::uint8_t strict_stack[2 * 64];
  std::vector<const std::uint8_t*> col_heap;
  std::vector<std::uint8_t> strict_heap;
  const std::uint8_t** cols = col_stack;
  std::uint8_t* slo = strict_stack;
  if (bound_count > std::size(col_stack)) {
    col_heap.resize(bound_count);
    strict_heap.resize(2 * bound_count);
    cols = col_heap.data();
    slo = strict_heap.data();
  }
  std::uint8_t* shi = slo + bound_count;
  for (std::size_t k = 0; k < bound_count; ++k) {
    cols[k] = view.qcol(ord[k]);
    slo[k] = static_cast<std::uint8_t>(qlo_ord[k] == 255 ? 255 : qlo_ord[k] + 1);
    shi[k] = static_cast<std::uint8_t>(qhi_ord[k] == 0 ? 0 : qhi_ord[k] - 1);
  }

  std::size_t candidates = 0;
  std::size_t i = begin;
  for (; i + 32 <= end; i += 32) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cols[0] + i));
    __m256i blo = _mm256_set1_epi8(static_cast<char>(qlo_ord[0]));
    __m256i bhi = _mm256_set1_epi8(static_cast<char>(qhi_ord[0]));
    __m256i acc = _mm256_and_si256(_mm256_cmpeq_epi8(_mm256_max_epu8(v, blo), v),
                                   _mm256_cmpeq_epi8(_mm256_min_epu8(v, bhi), v));
    if (_mm256_testz_si256(acc, acc)) continue;
    __m256i vslo = _mm256_set1_epi8(static_cast<char>(slo[0]));
    __m256i vshi = _mm256_set1_epi8(static_cast<char>(shi[0]));
    __m256i cert = _mm256_and_si256(_mm256_cmpeq_epi8(_mm256_max_epu8(v, vslo), v),
                                    _mm256_cmpeq_epi8(_mm256_min_epu8(v, vshi), v));
    std::size_t k = 1;
    for (; k < bound_count; ++k) {
      v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cols[k] + i));
      blo = _mm256_set1_epi8(static_cast<char>(qlo_ord[k]));
      bhi = _mm256_set1_epi8(static_cast<char>(qhi_ord[k]));
      acc = _mm256_and_si256(
          acc, _mm256_and_si256(_mm256_cmpeq_epi8(_mm256_max_epu8(v, blo), v),
                                _mm256_cmpeq_epi8(_mm256_min_epu8(v, bhi), v)));
      if (_mm256_testz_si256(acc, acc)) break;
      vslo = _mm256_set1_epi8(static_cast<char>(slo[k]));
      vshi = _mm256_set1_epi8(static_cast<char>(shi[k]));
      cert = _mm256_and_si256(
          cert, _mm256_and_si256(_mm256_cmpeq_epi8(_mm256_max_epu8(v, vslo), v),
                                 _mm256_cmpeq_epi8(_mm256_min_epu8(v, vshi), v)));
    }
    if (k < bound_count) continue;  // early exit left acc empty
    std::uint32_t mask = static_cast<std::uint32_t>(_mm256_movemask_epi8(acc));
    const std::uint32_t cmask =
        static_cast<std::uint32_t>(_mm256_movemask_epi8(_mm256_and_si256(cert, acc)));
    candidates += static_cast<std::size_t>(__builtin_popcount(mask));
    while (mask) {
      const std::uint32_t bit = mask & (~mask + 1);
      const std::size_t idx = i + static_cast<unsigned>(__builtin_ctz(mask));
      mask &= mask - 1;
      if ((cmask & bit) != 0 ||
          verify_row_avx2(rows + idx * d, vlo, vhi, wm, d, tail)) {
        out.push_back(idx);
      }
    }
  }
  // Tail (< 32 windows): the padded vlo/vhi/wmask rows already encode the
  // whole rule — wildcards included — so the exact verifier alone suffices.
  for (; i < end; ++i) {
    ++candidates;
    if (verify_row_avx2(rows + i * d, vlo, vhi, wm, d, tail)) out.push_back(i);
  }
  if (pruned_out) *pruned_out += (end - begin) - candidates;
}
#endif  // EF_MATCH_X86

/// Scalar rule-major body: byte planes first (uniformly rejecting padding
/// and inactive rules via the impossible 255/0 range), exact verification
/// on survivors. The SIMD bodies below are this loop with 16/32 rules per
/// compare.
[[maybe_unused]] void rule_major_scalar(const LagMajorView& view, const RulePlanes& p,
                                        std::size_t begin, std::size_t end,
                                        std::vector<std::vector<std::size_t>>& out) {
  const std::size_t d = p.window;
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint8_t* wq = view.qrows + i * d;
    const double* row = view.rows + i * d;
    for (std::size_t r = 0; r < p.rule_count; ++r) {
      unsigned ok = 1;
      for (std::size_t j = 0; j < d && ok; ++j) {
        const std::uint8_t b = wq[j];
        ok = static_cast<unsigned>((b >= p.qlo[j * p.padded + r]) &
                                   (b <= p.qhi[j * p.padded + r]));
      }
      if (ok && verify_rule_row(p, r, row)) out[r].push_back(i);
    }
  }
}

#if EF_MATCH_X86 || defined(__SSE2__)
/// SSE2 rule-major body: 16 rules per vector. One window's byte at gene j is
/// broadcast against the 16-lane slice of the lo/hi planes; the candidate
/// bitmask survives only where every gene's byte range passes.
void rule_major_sse2(const LagMajorView& view, const RulePlanes& p, std::size_t begin,
                     std::size_t end, std::vector<std::vector<std::size_t>>& out) {
  const std::size_t d = p.window;
  const std::size_t padded = p.padded;
  const std::uint8_t* qlo = p.qlo.data();
  const std::uint8_t* qhi = p.qhi.data();
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint8_t* wq = view.qrows + i * d;
    const double* row = view.rows + i * d;
    for (std::size_t base = 0; base < padded; base += 16) {
      __m128i acc = _mm_set1_epi8(static_cast<char>(0xFF));
      for (std::size_t j = 0; j < d; ++j) {
        const __m128i v = _mm_set1_epi8(static_cast<char>(wq[j]));
        const __m128i lo =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(qlo + j * padded + base));
        const __m128i hi =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(qhi + j * padded + base));
        const __m128i ge = _mm_cmpeq_epi8(_mm_max_epu8(v, lo), v);
        const __m128i le = _mm_cmpeq_epi8(_mm_min_epu8(v, hi), v);
        acc = _mm_and_si128(acc, _mm_and_si128(ge, le));
        if (_mm_movemask_epi8(acc) == 0) break;  // no rule in this lane-set survives
      }
      unsigned mask = static_cast<unsigned>(_mm_movemask_epi8(acc));
      while (mask) {
        const std::size_t r = base + static_cast<unsigned>(__builtin_ctz(mask));
        mask &= mask - 1;
        if (verify_rule_row(p, r, row)) out[r].push_back(i);
      }
    }
  }
}
#endif

#if EF_MATCH_X86
/// AVX2 rule-major body: 32 rules per vector, otherwise identical to the
/// SSE2 shape. testz gives the same early exit without a movemask round-trip.
__attribute__((target("avx2"))) void rule_major_avx2(
    const LagMajorView& view, const RulePlanes& p, std::size_t begin, std::size_t end,
    std::vector<std::vector<std::size_t>>& out) {
  const std::size_t d = p.window;
  const std::size_t padded = p.padded;
  const std::size_t pg = p.padded_genes;
  const std::uint8_t* qlo = p.qlo.data();
  const std::uint8_t* qhi = p.qhi.data();
  const __m256i tail = tail_gene_mask(d & 3);
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint8_t* wq = view.qrows + i * d;
    const double* row = view.rows + i * d;
    for (std::size_t base = 0; base < padded; base += 32) {
      __m256i acc = _mm256_set1_epi8(static_cast<char>(0xFF));
      for (std::size_t j = 0; j < d; ++j) {
        const __m256i v = _mm256_set1_epi8(static_cast<char>(wq[j]));
        const __m256i lo =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(qlo + j * padded + base));
        const __m256i hi =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(qhi + j * padded + base));
        const __m256i ge = _mm256_cmpeq_epi8(_mm256_max_epu8(v, lo), v);
        const __m256i le = _mm256_cmpeq_epi8(_mm256_min_epu8(v, hi), v);
        acc = _mm256_and_si256(acc, _mm256_and_si256(ge, le));
        if (_mm256_testz_si256(acc, acc)) break;
      }
      std::uint32_t mask = static_cast<std::uint32_t>(_mm256_movemask_epi8(acc));
      while (mask) {
        const std::size_t r = base + static_cast<unsigned>(__builtin_ctz(mask));
        mask &= mask - 1;
        if (verify_row_avx2(row, p.vlo.data() + r * pg, p.vhi.data() + r * pg,
                            p.wmask.data() + r * pg, d, tail)) {
          out[r].push_back(i);
        }
      }
    }
  }
}
#endif  // EF_MATCH_X86

}  // namespace

void soa_prefilter_match(const LagMajorView& view, std::span<const Interval> genes,
                         std::size_t begin, std::size_t end, std::vector<std::size_t>& out,
                         std::size_t* pruned_out, bool avx2) {
  const std::size_t n = end - begin;
  if (n == 0) return;

  // Non-wildcard genes ordered narrowest interval first: interval width is
  // proportional to expected pass rate, so the first column pass eliminates
  // as many windows as a single gene can.
  std::size_t order[64];
  std::size_t bound_count = 0;
  std::vector<std::size_t> order_heap;  // spill for very long windows
  std::size_t* ord = order;
  if (genes.size() > std::size(order)) {
    order_heap.resize(genes.size());
    ord = order_heap.data();
  }
  for (std::size_t j = 0; j < genes.size(); ++j) {
    if (!genes[j].is_wildcard()) ord[bound_count++] = j;
  }
  std::sort(ord, ord + bound_count, [&](std::size_t a, std::size_t b) {
    return genes[a].width() < genes[b].width();
  });

  if (bound_count == 0) {
    // All-wildcard rule: everything matches.
    out.reserve(out.size() + n);
    for (std::size_t i = begin; i < end; ++i) out.push_back(i);
    return;
  }

  // Scan the quantized byte column of the narrowest gene (8× less
  // traffic than doubles, 16 lanes per SSE2 compare — 32 with AVX2),
  // then verify each surviving candidate exactly against its contiguous
  // row-major window — every bound gene, narrowest first, in double
  // precision. The byte ranges are conservative supersets, so this
  // reproduces the exact match set. The column is processed
  // in blocks through a stack candidate buffer so `out` only ever receives
  // verified matches — typically a handful per thousand windows — instead
  // of the much larger candidate superset.
  const std::size_t d = view.window;
  const double* rows = view.rows;

#if EF_MATCH_X86
  if (avx2 && cpu_supports_avx2()) {
    // The AVX2 variant is the fused multi-gene byte scan: every bound gene's byte
    // column streamed 32 windows per compare with a strict-interior
    // certainty mask, so broad rules never gather scattered rows and
    // interior matches skip double verification entirely. Byte bounds in
    // scan order for the streaming masks; padded natural-order
    // vlo/vhi/wmask rows for the exact verifier (wildcard and padding
    // lanes carry the all-ones pass mask — see build_rule_planes, same
    // encoding).
    std::uint8_t qb_stack[2 * 64];
    std::vector<std::uint8_t> qb_heap;
    std::uint8_t* qlo_ord = qb_stack;
    if (2 * bound_count > std::size(qb_stack)) {
      qb_heap.resize(2 * bound_count);
      qlo_ord = qb_heap.data();
    }
    std::uint8_t* qhi_ord = qlo_ord + bound_count;
    for (std::size_t k = 0; k < bound_count; ++k) {
      qlo_ord[k] = quantize_bound(genes[ord[k]].lo(), view.qmin, view.qinv);
      qhi_ord[k] = quantize_bound(genes[ord[k]].hi(), view.qmin, view.qinv);
    }

    const std::size_t pg = (d + 3) / 4 * 4;
    double vrow_stack[3 * 68];
    std::vector<double> vrow_heap;
    double* vlo2 = vrow_stack;
    if (3 * pg > std::size(vrow_stack)) {
      vrow_heap.resize(3 * pg);
      vlo2 = vrow_heap.data();
    }
    double* vhi2 = vlo2 + pg;
    double* wm2 = vlo2 + 2 * pg;
    const double kWildAll = std::bit_cast<double>(~std::uint64_t{0});
    for (std::size_t j = 0; j < pg; ++j) {
      const bool bounded = j < d && !genes[j].is_wildcard();
      vlo2[j] = bounded ? genes[j].lo() : 0.0;
      vhi2[j] = bounded ? genes[j].hi() : 0.0;
      wm2[j] = bounded ? 0.0 : kWildAll;
    }
    fused_byte_match_avx2(view, ord, qlo_ord, qhi_ord, bound_count, vlo2, vhi2, wm2,
                          begin, end, out, pruned_out);
    return;
  }
#else
  (void)avx2;
#endif

  const std::size_t j0 = ord[0];
  const std::uint8_t qlo = quantize_bound(genes[j0].lo(), view.qmin, view.qinv);
  const std::uint8_t qhi = quantize_bound(genes[j0].hi(), view.qmin, view.qinv);

  // Second-narrowest gene as a byte-level candidate filter: a gathered
  // byte compare (~1 ns) is far cheaper than the exact row verification it
  // saves, and the relaxed range is a superset of the gene's interval, so
  // no true match is ever dropped (NaN quantizes to 0 and bounded genes
  // reject NaN either way — removing such a candidate early is correct).
  const bool has_second = bound_count >= 2;
  const std::uint8_t* qc1 = nullptr;
  std::uint8_t qlo1 = 0;
  std::uint8_t qhi1 = 255;
  if (has_second) {
    qc1 = view.qcol(ord[1]);
    qlo1 = quantize_bound(genes[ord[1]].lo(), view.qmin, view.qinv);
    qhi1 = quantize_bound(genes[ord[1]].hi(), view.qmin, view.qinv);
  }

  double glo_stack[64];
  double ghi_stack[64];
  std::vector<double> glo_heap;
  std::vector<double> ghi_heap;
  double* glo = glo_stack;
  double* ghi = ghi_stack;
  if (bound_count > std::size(glo_stack)) {
    glo_heap.resize(bound_count);
    ghi_heap.resize(bound_count);
    glo = glo_heap.data();
    ghi = ghi_heap.data();
  }
  for (std::size_t k = 0; k < bound_count; ++k) {
    glo[k] = genes[ord[k]].lo();
    ghi[k] = genes[ord[k]].hi();
  }

  const std::uint8_t* qc = view.qcol(j0);

  constexpr std::size_t kBlockWin = 4096;
  std::size_t cand[kBlockWin];
  std::size_t candidates = 0;
  for (std::size_t b = begin; b < end; b += kBlockWin) {
    const std::size_t block_end = std::min(end, b + kBlockWin);
    std::size_t m = byte_compress_block(qc, qlo, qhi, b, block_end, cand);
    candidates += m;
    if (has_second) {
      std::size_t w2 = 0;
      for (std::size_t r = 0; r < m; ++r) {
        const std::size_t i = cand[r];
        cand[w2] = i;
        w2 += static_cast<std::size_t>((qc1[i] >= qlo1) & (qc1[i] <= qhi1));
      }
      m = w2;
    }
    // Verify in place (write <= read, so the unconditional store is safe);
    // candidate rows are scattered, so prefetching a couple dozen ahead
    // hides the row-gather latency behind the branchless gene checks.
    std::size_t w = 0;
    for (std::size_t r = 0; r < m; ++r) {
      if (r + 24 < m) __builtin_prefetch(rows + cand[r + 24] * d);
      const std::size_t i = cand[r];
      const double* row = rows + i * d;
      unsigned okf = 1;
      for (std::size_t k = 0; k < bound_count; ++k) {
        const double v = row[ord[k]];
        okf &= static_cast<unsigned>((v >= glo[k]) & (v <= ghi[k]));
      }
      cand[w] = i;
      w += okf;
    }
    out.insert(out.end(), cand, cand + w);
  }
  if (pruned_out) *pruned_out += n - candidates;
}

void rule_major_match(const LagMajorView& view, const RulePlanes& planes, std::size_t begin,
                      std::size_t end, std::vector<std::vector<std::size_t>>& out) {
  // Zero-lag planes have no byte plane to reject padding or inactive lanes
  // with, so they match nothing (no rule of the paper has zero genes).
  if (planes.rule_count == 0 || planes.window == 0 || begin >= end) return;
#if EF_MATCH_X86
  if (cpu_supports_avx2()) {
    rule_major_avx2(view, planes, begin, end, out);
    return;
  }
  rule_major_sse2(view, planes, begin, end, out);
#elif defined(__SSE2__)
  rule_major_sse2(view, planes, begin, end, out);
#else
  rule_major_scalar(view, planes, begin, end, out);
#endif
}

}  // namespace matchkern

}  // namespace ef::core
