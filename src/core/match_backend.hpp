// match_backend.hpp — the match hot loop: which windows does a rule accept?
//
// Evaluating one offspring rule tests every training window (up to ~45 000
// for Venice) against D interval genes; that scan dominates training
// wall-clock. The paper's predicate is one (§3: every non-wildcard gene
// contains its lag), and so is the match path. A single rule runs the
// prefilter kernel: non-wildcard genes narrowest first, the narrowest gene
// relaxed to a byte range and scanned over the quantized uint8 columns (8×
// less memory traffic than doubles), the surviving candidates re-verified
// exactly against the row-major mirror. A whole rule set runs the rule-major
// kernel: quantized lo/hi byte planes for every gene of every rule, built
// once, matched against the window stream in ONE pass (16/32 rules per SIMD
// compare), exact verification only on survivors the strict-interior byte
// planes do not certify. Its output goes per rule (MatchEngine::match_all)
// or per window (the voter lists of RuleSystem's forecasts) straight from
// the same loop.
//
// Inside both kernels cpu_supports_avx2() alone picks the SIMD width: AVX2
// (32 byte lanes, compiled via function target attributes so the binary
// stays runnable on baseline x86-64), else SSE2, else scalar.
// EVOFORECAST_MATCH_CPU=baseline masks the cpuid probe — the only way to run
// the SSE2 kernels on AVX2 hardware.
//
// Every kernel and SIMD width produces the same match sets as the paper's
// scalar scan (ascending window indices; a non-wildcard gene rejects NaN, a
// wildcard accepts anything) — the paper oracle under tests/oracle/ is that
// scan, and the tests compare every kernel with it. Quantization never costs
// a match: the byte mapping is monotone, so the relaxed byte range is a
// superset of the gene's exact interval, and every candidate is re-checked
// with the double comparisons lo <= v && v <= hi — unless its bytes lie
// strictly inside every bounded gene's byte range, which by the same
// monotonicity implies lo < v < hi.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/interval.hpp"

namespace ef::core {

/// The match path of EvolutionConfig::match_backend. One value: the kernels
/// above, whose SIMD width cpuid picks.
enum class MatchBackend {
  kAuto,  ///< prefilter per rule, rule-major per rule set
};

[[nodiscard]] constexpr const char* to_string(MatchBackend) noexcept { return "auto"; }

/// Does this CPU support AVX2? Probed once per process (cpuid via
/// __builtin_cpu_supports); always false on non-x86 builds. The
/// EVOFORECAST_MATCH_CPU environment variable overrides the probe:
/// "baseline" forces false (runs the SSE2 kernels without needing pre-AVX
/// hardware), anything else is ignored.
[[nodiscard]] bool cpu_supports_avx2() noexcept;

/// Returns `configured` unchanged. The first time it is called in this
/// process, a one-time "match.backend_selected" event (with avx2_supported)
/// and the match.backend.auto.selected counter record it, so smoke scripts
/// and efstat can see what training ran.
[[nodiscard]] MatchBackend resolve_match_backend(MatchBackend configured);

/// The match kernels' view of packed windows: the row-major doubles plus
/// quantized byte mirrors, lag-major (column j holds lag j of every window,
/// contiguously) and row-major. Built once by WindowDataset at construction;
/// RuleSystem's forecast and coverage entries build a rows + qrows view per
/// block of windows for the rule-major kernel.
struct LagMajorView {
  std::size_t count = 0;   ///< windows (rows of the logical matrix)
  std::size_t window = 0;  ///< lags (columns)

  /// Row-major mirror of the same windows (count × window,
  /// window-contiguous per row). The prefilter and rule-major kernels verify
  /// byte-pass candidates against one contiguous row.
  const double* rows = nullptr;

  /// Quantized lag-major mirror: byte = clamp(⌊(v − qmin)·qinv⌋, 0, 255),
  /// one column of `count` bytes per lag. The mapping is monotone, so a gene
  /// interval relaxed to byte bounds the same way yields a candidate
  /// superset — exact double verification then restores bit-identical match
  /// sets. Required by the prefilter kernel.
  const std::uint8_t* qdata = nullptr;
  double qmin = 0.0;  ///< quantization origin (dataset value minimum)
  double qinv = 0.0;  ///< 255 / (max − min); 0 for a constant series

  /// Quantized row-major mirror (count × window, same byte map as `qdata`).
  /// The rule-major kernel streams this — one window's bytes are broadcast
  /// against the planes of 16/32 rules at a time.
  const std::uint8_t* qrows = nullptr;

  [[nodiscard]] const std::uint8_t* qcol(std::size_t j) const noexcept {
    return qdata + j * count;
  }
};

/// Quantized lo/hi byte planes plus exact verification mirrors for a whole
/// rule set — the input of the rule-major batched kernel. Built by
/// build_rule_planes (training: once per evaluation batch; forecasting: once
/// per model, RuleSystem::compile_planes); plane j is `padded` bytes, one
/// lane per rule, padded to the SIMD lane count with impossible ranges
/// (lo=255, hi=0) so padding lanes can never produce a candidate or a
/// certified match.
struct RulePlanes {
  std::size_t rule_count = 0;  ///< real rules (before lane padding)
  std::size_t window = 0;      ///< D — gene count every active rule must have
  std::size_t padded = 0;      ///< rule_count rounded up to the lane width
  std::size_t padded_genes = 0;  ///< window rounded up to 4 (AVX2 double lanes)
  double qmin = 0.0;  ///< the byte map the planes were quantized with; windows
  double qinv = 0.0;  ///< matched against them must be quantized the same way

  std::vector<std::uint8_t> qlo;  ///< window planes × padded lanes
  std::vector<std::uint8_t> qhi;  ///< same layout as qlo

  /// Strict-interior byte bounds, same layout as qlo: qlo+1 / qhi−1 for a
  /// bounded gene, 0/255 for a wildcard, the impossible 255/0 for a bounded
  /// gene with qlo == 255 or qhi == 0 and for padding and inactive lanes. A
  /// window byte b in [slo, shi] certifies lo < v < hi: the byte map is
  /// monotone, so b > q(lo) implies v > lo and b < q(hi) implies v < hi, and
  /// NaN (byte 0) is never certified by a bounded gene. A window whose bytes
  /// are certified in every gene matches without exact verification.
  std::vector<std::uint8_t> slo;
  std::vector<std::uint8_t> shi;

  /// Exact bounds, rule-major rows of `padded_genes` entries. Verification is
  /// pass = wild | (vlo <= v && v <= vhi) per gene — the paper's double
  /// comparisons, which the AVX2 verifier runs four gene lanes at a time.
  /// `wmask` encodes "wildcard" as an all-ones double bit pattern (and 0.0
  /// for bounded genes) so the vector verifier can OR it straight into the
  /// comparison mask; gene lanes past `window` are set passing so padded
  /// chunks never reject.
  std::vector<double> vlo;
  std::vector<double> vhi;
  std::vector<double> wmask;
  std::vector<std::uint8_t> active;  ///< per rule: 0 = matches nothing
};

/// Quantize one value through the view's monotone byte map. NaN maps to 0 —
/// safe because a bounded gene's exact verification rejects NaN anyway and a
/// wildcard's byte range is the full [0, 255]. So does a NaN product (±inf
/// under a degenerate qinv == 0 map, or v == qmin under qinv == inf): the
/// degenerate map sends every value to 0, and qmin is the map's minimum, so
/// the map stays monotone.
[[nodiscard]] std::uint8_t quantize_value(double v, double qmin, double qinv) noexcept;

/// Build the batched planes for a rule set. `rule_genes[r]` is rule r's gene
/// span; a span whose length differs from `window` (including the empty span
/// callers use to exclude a rule) is marked inactive and matches nothing.
/// `qmin`/`qinv` must be the byte map of the view the planes will be matched
/// against.
[[nodiscard]] RulePlanes build_rule_planes(std::span<const std::span<const Interval>> rule_genes,
                                           std::size_t window, double qmin, double qinv);

/// Low-level kernels. Each appends the indices in [begin, end) whose window
/// matches `genes` to `out`, ascending. `genes.size()` must equal the view's
/// window length (callers handle the dimension-mismatch = matches-nothing
/// rule). Kernels are stateless and safe to call concurrently on disjoint
/// or overlapping ranges.
namespace matchkern {

/// Prefilter kernel: narrowest non-wildcard gene first as a byte-column
/// scan, exact verification of the candidates. Requires view.qdata and
/// view.rows. When `pruned_out` is non-null it accumulates the number of
/// windows eliminated at the byte level — i.e. windows never tested in
/// double precision. `avx2` selects the fused 32-lane multi-gene byte scan
/// (requires cpu_supports_avx2(); silently degrades to the SSE2 scan
/// otherwise, results identical either way).
void soa_prefilter_match(const LagMajorView& view, std::span<const Interval> genes,
                         std::size_t begin, std::size_t end, std::vector<std::size_t>& out,
                         std::size_t* pruned_out = nullptr, bool avx2 = false);

/// Rule-major batched kernel: match every rule of `planes` against windows
/// [begin, end) in one pass, appending window i to out[r] (ascending; out
/// must hold planes.rule_count vectors). Requires view.qrows and view.rows;
/// the SIMD width is chosen per call from the cpuid probe — AVX2 when
/// `avx2` is set and the CPU has it, else SSE2, else scalar; results are
/// identical either way. Bit-identical to running the prefilter kernel per
/// rule. Planes of zero lags match nothing, so an empty window never has
/// voters.
void rule_major_match(const LagMajorView& view, const RulePlanes& planes,
                      std::size_t begin, std::size_t end,
                      std::vector<std::vector<std::size_t>>& out, bool avx2 = true);

/// The same kernel with window-major output: appends every rule that
/// matches window i to out[i − begin], ascending — a window's voter list
/// (out must hold end − begin vectors). Transposing it gives
/// rule_major_match's output exactly.
void window_major_match(const LagMajorView& view, const RulePlanes& planes,
                        std::size_t begin, std::size_t end,
                        std::vector<std::vector<std::size_t>>& out, bool avx2 = true);

}  // namespace matchkern

}  // namespace ef::core
