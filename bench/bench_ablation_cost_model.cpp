// Ablation — where does the all-reduce/all-gather crossover sit, and how
// does it move with (a) the interconnect and (b) quantization? Pure
// cost-model analysis (no training): this is the mechanism behind
// strategies 1 and 3, isolated from learning dynamics.
#include <iostream>

#include "comm/cost_model.hpp"
#include "harness/harness.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"

using namespace dynkge;

namespace {

/// Modeled per-step communication time for both transports given the
/// dense matrix size and the per-rank non-zero row volume. Pure alpha-beta
/// arithmetic, so the emitted metrics are exactly reproducible.
void crossover_table(const comm::CostModel& model, std::size_t dense_bytes,
                     std::size_t row_bytes, std::size_t rows_per_rank,
                     obs::BenchReporter& reporter, const std::string& prefix,
                     util::Table& table) {
  for (const int ranks : {2, 4, 8, 16, 32}) {
    const std::size_t per_rank = rows_per_rank * row_bytes;
    const double reduce = model.allreduce_time(ranks, dense_bytes);
    const double gather = model.allgatherv_time(
        ranks, per_rank * static_cast<std::size_t>(ranks), per_rank);
    table.begin_row()
        .add(ranks)
        .add(reduce * 1e3, 4)
        .add(gather * 1e3, 4)
        .add(gather < reduce ? "allgather" : "allreduce");
    const std::string key = prefix + ".r" + std::to_string(ranks);
    reporter.set(key + ".allreduce_ms", reduce * 1e3);
    reporter.set(key + ".allgather_ms", gather * 1e3);
    reporter.flag(key + ".allgather_wins", gather < reduce);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  const bool csv = args.has_flag("csv");
  obs::BenchReporter reporter("ablation_cost_model",
                              args.get_string("bench-json", ""));

  // FB250K-like dense entity gradient matrix: 240K rows x 200 floats.
  const std::size_t dense = 240000ull * 200ull * 4ull;
  const std::size_t raw_row = 4 + 200 * 4;       // id + float values
  const std::size_t quant_row = 4 + 4 + 200 / 8; // id + scale + sign bits
  const std::size_t rows = 30000;                // non-zero rows per rank

  std::cout << "Ablation: all-reduce/all-gather crossover (cost model only)\n"
            << "Dense matrix " << dense / (1 << 20) << " MiB, " << rows
            << " non-zero rows/rank of 200 floats\n\n";

  {
    util::Table table({"ranks", "allreduce ms", "allgather ms", "winner"});
    crossover_table(comm::CostModel(comm::CostModelParams::aries()), dense,
                    raw_row, rows, reporter, "aries.raw", table);
    table.print(std::cout, "Aries-like network, raw 32-bit rows:");
    if (csv) std::cout << table.to_csv();
  }
  {
    util::Table table({"ranks", "allreduce ms", "allgather ms", "winner"});
    crossover_table(comm::CostModel(comm::CostModelParams::aries()), dense,
                    quant_row, rows, reporter, "aries.quant", table);
    table.print(std::cout,
                "Aries-like network, 1-bit quantized rows (32x smaller — "
                "allgather wins everywhere, which is why the dynamic "
                "selector rarely picks allreduce after quantization):");
    if (csv) std::cout << table.to_csv();
  }
  {
    util::Table table({"ranks", "allreduce ms", "allgather ms", "winner"});
    crossover_table(comm::CostModel(comm::CostModelParams::ethernet()), dense,
                    raw_row, rows, reporter, "ethernet.raw", table);
    table.print(std::cout,
                "Commodity-Ethernet-like network, raw rows (higher alpha "
                "and beta shift the crossover):");
    if (csv) std::cout << table.to_csv();
  }
  return reporter.write() ? 0 : 1;
}
