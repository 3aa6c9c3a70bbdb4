// The paper's reported numbers, transcribed for side-by-side printing.
// (Panda & Vadhiyar, ICPP 2022 — Tables 1, 2, 4 and the section-5 summary
// claims.) Times are hours on their Cray XC40; our measurements are
// simulated-cluster seconds, so only the *shapes* are comparable.
#pragma once

#include <cstddef>
#include <span>

namespace dynkge::bench::paper {

struct BaselineRow {
  int nodes;
  double allreduce_tt_hours;
  int allreduce_epochs;
  double allreduce_tca;
  double allreduce_mrr;
  double allgather_tt_hours;
  int allgather_epochs;
  double allgather_tca;
  double allgather_mrr;
};

/// Table 1: baseline on FB15K.
inline constexpr BaselineRow kTable1Fb15k[] = {
    {1, 3.26, 301, 90.7, 0.59, 3.26, 301, 90.7, 0.59},
    {2, 1.27, 257, 90.2, 0.57, 3.52, 358, 90.6, 0.59},
    {4, 0.78, 300, 90.3, 0.58, 2.48, 349, 90.3, 0.58},
    {8, 0.54, 381, 90.3, 0.58, 2.34, 314, 90.1, 0.56},
};

/// Table 2: baseline on FB250K.
inline constexpr BaselineRow kTable2Fb250k[] = {
    {1, 37.20, 250, 89.6, 0.28, 37.20, 250, 89.6, 0.28},
    {2, 35.30, 252, 89.6, 0.28, 26.30, 283, 89.9, 0.28},
    {4, 24.04, 302, 89.6, 0.28, 19.60, 298, 89.7, 0.28},
    {8, 14.30, 323, 89.5, 0.29, 17.53, 339, 89.1, 0.28},
    {16, 11.30, 379, 88.5, 0.28, 16.10, 386, 88.5, 0.28},
};

struct SampleSelectionRow {
  const char* ratio;  ///< "m out of n"
  int sampled;
  int used;
  double tt_hours;
  int epochs;
  double mrr;
  double tca;
};

/// Table 4: sample selection with 1-bit quantization on 2 nodes (FB15K).
inline constexpr SampleSelectionRow kTable4[] = {
    {"1 out of 1", 1, 1, 0.41, 423, 0.523, 89.3},
    {"1 out of 5", 5, 1, 0.66, 240, 0.590, 90.53},
    {"1 out of 10", 10, 1, 0.775, 229, 0.610, 90.7},
    {"1 out of 20", 20, 1, 0.97, 210, 0.629, 90.74},
    {"1 out of 30", 30, 1, 1.06, 187, 0.630, 90.8},
    {"5 out of 5", 5, 5, 1.29, 390, 0.585, 90.5},
    {"10 out of 10", 10, 10, 2.10, 344, 0.592, 90.5},
};

/// A combined-methods figure (8 or 9). Its first two methods, all-reduce
/// and all-gather, are the paper's baseline runs: those of `table`, and of
/// Figure 1 in the time and epoch panels.
struct CombinedFigure {
  const char* figure;  ///< "8" captions "Figure 8a", "Figure 8b", ...
  const char* table;   ///< "Table 1"
  std::span<const BaselineRow> table_rows;  ///< that table's paper rows
  const char* tt_panel;      ///< Figure 1 panel of the baseline TT columns
  const char* epochs_panel;  ///< ... of the baseline epoch columns, or ""
  // Section 5.3: the combined stack's mean time reduction and MRR gain.
  double time_reduction_pct;
  double mrr_gain_pct;
};

inline constexpr CombinedFigure kFigure8{
    "8", "Table 1", kTable1Fb15k, "1a", "", 65.2, 17.7};
inline constexpr CombinedFigure kFigure9{
    "9", "Table 2", kTable2Fb250k, "1b", "1c", 44.95, 17.5};

// Section 4.3: all-reduce epochs drop ~60% once quantization is on.
inline constexpr double kAllReduceReductionPct = 60.0;

}  // namespace dynkge::bench::paper
