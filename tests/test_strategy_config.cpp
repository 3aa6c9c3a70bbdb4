#include "core/strategy_config.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dynkge::core {
namespace {

TEST(StrategyConfig, DefaultIsPlainAllReduce) {
  const StrategyConfig config;
  EXPECT_EQ(config.comm, CommMode::kAllReduce);
  EXPECT_EQ(config.selection, SelectionMode::kNone);
  EXPECT_EQ(config.quant, QuantMode::kNone);
  EXPECT_FALSE(config.relation_partition);
  EXPECT_FALSE(config.sample_selection_active());
}

TEST(StrategyConfig, PresetBaselines) {
  const auto ar = StrategyConfig::baseline_allreduce(10);
  EXPECT_EQ(ar.comm, CommMode::kAllReduce);
  EXPECT_EQ(ar.negatives_sampled, 10);
  EXPECT_EQ(ar.negatives_used, 10);
  EXPECT_FALSE(ar.sample_selection_active());

  const auto ag = StrategyConfig::baseline_allgather(1);
  EXPECT_EQ(ag.comm, CommMode::kAllGather);
}

TEST(StrategyConfig, RsPresetsUseBernoulliSelection) {
  EXPECT_EQ(StrategyConfig::rs().selection, SelectionMode::kBernoulli);
  EXPECT_EQ(StrategyConfig::rs().comm, CommMode::kAllGather);
  EXPECT_EQ(StrategyConfig::drs().comm, CommMode::kDynamic);
  EXPECT_EQ(StrategyConfig::rs_1bit().quant, QuantMode::kOneBit);
  EXPECT_EQ(StrategyConfig::drs_1bit().quant, QuantMode::kOneBit);
}

TEST(StrategyConfig, CombinedPresetEnablesEverything) {
  const auto full = StrategyConfig::drs_1bit_rp_ss(10, 1);
  EXPECT_EQ(full.comm, CommMode::kDynamic);
  EXPECT_EQ(full.selection, SelectionMode::kBernoulli);
  EXPECT_EQ(full.quant, QuantMode::kOneBit);
  EXPECT_TRUE(full.relation_partition);
  EXPECT_EQ(full.negatives_sampled, 10);
  EXPECT_EQ(full.negatives_used, 1);
  EXPECT_TRUE(full.sample_selection_active());
}

TEST(StrategyConfig, TopKPresetsShareTheRsTransportAndForceFeedback) {
  const auto topk = StrategyConfig::topk(128);
  EXPECT_EQ(topk.selection, SelectionMode::kTopK);
  EXPECT_EQ(topk.comm, CommMode::kAllGather);
  EXPECT_EQ(topk.topk_k, 128);
  // Top-K without residuals would simply drop the (rows - k) tail, so
  // the preset always turns error feedback on.
  EXPECT_TRUE(topk.selection_residual);

  const auto drs_topk = StrategyConfig::drs_topk(64);
  EXPECT_EQ(drs_topk.comm, CommMode::kDynamic);
  EXPECT_TRUE(drs_topk.dynamic_topk_arm);
  EXPECT_TRUE(drs_topk.selection_residual);
  EXPECT_EQ(drs_topk.topk_k, 64);
}

TEST(StrategyConfig, LabelsMatchPaperNomenclature) {
  EXPECT_EQ(StrategyConfig::baseline_allreduce().label(), "allreduce");
  EXPECT_EQ(StrategyConfig::baseline_allgather().label(), "allgather");
  EXPECT_EQ(StrategyConfig::rs().label(), "RS");
  EXPECT_EQ(StrategyConfig::drs().label(), "DRS");
  EXPECT_EQ(StrategyConfig::rs_1bit().label(), "RS+1-bit");
  EXPECT_EQ(StrategyConfig::drs_1bit().label(), "DRS+1-bit");
  EXPECT_EQ(StrategyConfig::rs_1bit_rp_ss(10).label(), "RS+1-bit+RP+SS");
  EXPECT_EQ(StrategyConfig::drs_1bit_rp_ss(5).label(), "DRS+1-bit+RP+SS");
  EXPECT_EQ(StrategyConfig::topk(64).label(), "TopK");
  EXPECT_EQ(StrategyConfig::drs_topk(64).label(), "DRS+TopK-arm");
}

TEST(StrategyConfig, SpecNamesEveryField) {
  const StrategyConfig base;
  EXPECT_EQ(base.spec(),
            "comm=allreduce;dynamic_probe_interval=10;selection=none;"
            "selection_residual=0;topk_k=0;dynamic_topk_arm=0;quant=none;"
            "one_bit_scale=max;error_feedback=0;relation_partition=0;"
            "negatives_sampled=1;negatives_used=1");
  // One change per field: each moves the spec, and configurations that
  // share a label do not share a spec.
  std::vector<StrategyConfig> changed(12, base);
  changed[0].comm = CommMode::kDynamic;
  changed[1].dynamic_probe_interval = 3;
  changed[2].selection = SelectionMode::kBernoulli;
  changed[3].selection_residual = true;
  changed[4].topk_k = 5;
  changed[5].dynamic_topk_arm = true;
  changed[6].quant = QuantMode::kTwoBit;
  changed[7].one_bit_scale = OneBitScale::kMean;
  changed[8].error_feedback = true;
  changed[9].relation_partition = true;
  changed[10].negatives_sampled = 8;
  changed[11].negatives_used = 8;
  for (const StrategyConfig& config : changed) {
    EXPECT_NE(config.spec(), base.spec()) << config.spec();
    EXPECT_EQ(config == base, config.spec() == base.spec());
  }
  EXPECT_EQ(changed[1].label(), base.label());
  EXPECT_EQ(changed[7].label(), base.label());
  EXPECT_EQ(changed[11].label(), base.label());
}

TEST(StrategyConfig, EnumNames) {
  EXPECT_STREQ(to_string(CommMode::kDynamic), "dynamic");
  EXPECT_STREQ(to_string(SelectionMode::kBernoulli), "random-selection");
  EXPECT_STREQ(to_string(SelectionMode::kAverageTenth), "averagex0.1");
  EXPECT_STREQ(to_string(SelectionMode::kTopK), "topk");
  EXPECT_STREQ(to_string(QuantMode::kOneBit), "1-bit");
  EXPECT_STREQ(to_string(OneBitScale::kMax), "max");
  EXPECT_STREQ(to_string(OneBitScale::kNegMean), "negavg");
}

}  // namespace
}  // namespace dynkge::core
