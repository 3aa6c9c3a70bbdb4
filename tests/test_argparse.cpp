#include "util/argparse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/fault.hpp"
#include "core/federated.hpp"
#include "core/trainer.hpp"
#include "kge/synthetic.hpp"

namespace dynkge::util {
namespace {

ArgParser make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, Defaults) {
  const auto args = make({});
  EXPECT_EQ(args.get_int("nodes", 4), 4);
  EXPECT_EQ(args.get_string("scale", "mini"), "mini");
  EXPECT_DOUBLE_EQ(args.get_double("lr", 0.001), 0.001);
  EXPECT_FALSE(args.has_flag("verbose"));
}

TEST(ArgParser, SpaceSeparatedValues) {
  const auto args = make({"--nodes", "8", "--scale", "full"});
  EXPECT_EQ(args.get_int("nodes", 0), 8);
  EXPECT_EQ(args.get_string("scale", ""), "full");
}

TEST(ArgParser, EqualsSeparatedValues) {
  const auto args = make({"--nodes=16", "--lr=0.01"});
  EXPECT_EQ(args.get_int("nodes", 0), 16);
  EXPECT_DOUBLE_EQ(args.get_double("lr", 0.0), 0.01);
}

TEST(ArgParser, BareFlags) {
  const auto args = make({"--verbose", "--nodes", "2"});
  EXPECT_TRUE(args.has_flag("verbose"));
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get_int("nodes", 0), 2);
}

TEST(ArgParser, BareFlagAtEnd) {
  const auto args = make({"--nodes", "2", "--csv"});
  EXPECT_TRUE(args.has_flag("csv"));
  EXPECT_EQ(args.get_int("nodes", 0), 2);
}

TEST(ArgParser, BoolValues) {
  const auto args = make({"--a=true", "--b=false", "--c=1", "--d=off"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
}

TEST(ArgParser, IntList) {
  const auto args = make({"--nodes", "1,2,4,8,16"});
  const auto list = args.get_int_list("nodes", {});
  ASSERT_EQ(list.size(), 5u);
  EXPECT_EQ(list[0], 1);
  EXPECT_EQ(list[4], 16);
}

TEST(ArgParser, IntListFallback) {
  const auto args = make({});
  const auto list = args.get_int_list("nodes", {1, 2});
  ASSERT_EQ(list.size(), 2u);
}

TEST(ArgParser, RejectsPositional) {
  EXPECT_THROW(make({"oops"}), std::invalid_argument);
}

TEST(ArgParser, NegativeNumbersAsValues) {
  // A negative numeric value must not be mistaken for a flag.
  const auto args = make({"--offset", "-3"});
  EXPECT_EQ(args.get_int("offset", 0), -3);
}

TEST(ArgParser, RejectsFlagsNoGetterRead) {
  const auto args = make({"--nodes", "2", "--verbose", "--max-epoch", "1",
                          "--zeta=3"});
  EXPECT_EQ(args.get_int("nodes", 0), 2);
  EXPECT_TRUE(args.has_flag("verbose"));
  EXPECT_EQ(args.get_int("max-epochs", 7), 7);  // asked for, never given
  try {
    args.reject_unread();
    FAIL() << "--max-epoch was never read";
  } catch (const UnreadFlagError& error) {
    EXPECT_NE(std::string(error.what()).find("--max-epoch "),
              std::string::npos)
        << error.what();
  }
  EXPECT_EQ(args.get_string("max-epoch", ""), "1");
  EXPECT_THROW(args.reject_unread(), UnreadFlagError);  // --zeta
  EXPECT_EQ(args.get_int("zeta", 0), 3);
  EXPECT_NO_THROW(args.reject_unread());
}

// ---- selection / federated flag surface ------------------------------
//
// The CLI forwards these straight into TrainConfig / FederatedPolicy, so
// the parse shapes and the config-time rejection messages are one
// contract: a bad value must come back as std::invalid_argument naming
// the flag the user typed (the probe_interval precedent in trainer.cpp).

TEST(ArgParser, SelectionAndFederatedFlagShapes) {
  const auto args = make({"--select", "topk", "--topk-k", "514",
                          "--drs-topk-arm", "--trainer", "federated",
                          "--clients", "4", "--local-epochs=2",
                          "--rounds", "10"});
  EXPECT_EQ(args.get_string("select", ""), "topk");
  EXPECT_EQ(args.get_int("topk-k", 0), 514);
  EXPECT_TRUE(args.get_bool("drs-topk-arm", false));
  EXPECT_EQ(args.get_string("trainer", "distributed"), "federated");
  EXPECT_EQ(args.get_int("clients", 2), 4);
  EXPECT_EQ(args.get_int("local-epochs", 1), 2);
  EXPECT_EQ(args.get_int("rounds", 0), 10);
}

const kge::Dataset& flag_dataset() {
  static const kge::Dataset dataset = kge::generate_synthetic([] {
    kge::SyntheticSpec spec;
    spec.num_entities = 50;
    spec.num_relations = 4;
    spec.num_triples = 400;
    spec.seed = 5;
    return spec;
  }());
  return dataset;
}

void expect_message_names_flag(const std::function<void()>& build,
                               const std::string& flag) {
  try {
    build();
    FAIL() << "expected invalid_argument naming " << flag;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(flag), std::string::npos)
        << error.what();
  }
}

TEST(FlagValidation, TopKRejectedByFlagName) {
  core::TrainConfig config;
  config.strategy = core::StrategyConfig::topk(1);

  config.strategy.topk_k = 0;
  expect_message_names_flag(
      [&] { core::DistributedTrainer trainer(flag_dataset(), config); },
      "--topk-k");

  config.strategy.topk_k = flag_dataset().num_entities() + 1;
  expect_message_names_flag(
      [&] { core::DistributedTrainer trainer(flag_dataset(), config); },
      "--topk-k");

  // The dynamic Top-K arm only exists under a dynamic comm mode.
  config = core::TrainConfig{};
  config.strategy = core::StrategyConfig::rs();
  config.strategy.dynamic_topk_arm = true;
  config.strategy.topk_k = 8;
  expect_message_names_flag(
      [&] { core::DistributedTrainer trainer(flag_dataset(), config); },
      "--drs-topk-arm");
}

TEST(FlagValidation, RobustnessKnobsRejectedByFlagName) {
  expect_message_names_flag(
      [] { comm::FaultInjector injector({}, comm::RetryPolicy{}, -0.5); },
      "--collective-deadline");

  core::TrainConfig config;
  config.checkpoint.keep = 0;
  expect_message_names_flag(
      [&] { core::DistributedTrainer trainer(flag_dataset(), config); },
      "--checkpoint-keep");

  config = core::TrainConfig{};
  config.checkpoint.on_error = "ignore";
  expect_message_names_flag(
      [&] { core::DistributedTrainer trainer(flag_dataset(), config); },
      "--checkpoint-on-error");

  // The three valid policies construct cleanly.
  for (const char* policy : {"fail", "skip", "retry"}) {
    config = core::TrainConfig{};
    config.checkpoint.on_error = policy;
    core::DistributedTrainer trainer(flag_dataset(), config);
  }
}

TEST(FlagValidation, FederatedPolicyRejectedByFlagName) {
  core::FederatedPolicy policy;

  policy.num_clients = 0;
  expect_message_names_flag(
      [&] { core::validate_federated_policy(policy); }, "--clients");

  policy = core::FederatedPolicy{};
  policy.local_epochs = 0;
  expect_message_names_flag(
      [&] { core::validate_federated_policy(policy); }, "--local-epochs");

  policy = core::FederatedPolicy{};
  policy.rounds = 0;
  expect_message_names_flag(
      [&] { core::validate_federated_policy(policy); }, "--rounds");

  policy = core::FederatedPolicy{};
  policy.elastic.enabled = true;
  policy.elastic.max_rank_failures = -1;
  expect_message_names_flag(
      [&] { core::validate_federated_policy(policy); },
      "--max-rank-failures");
}

// ---- values that do not parse in full ----------------------------------
//
// A typed getter takes the whole token or throws naming the flag and the
// token: `--nodes 2x` must not train on 2 nodes, nor `--seed 3.7` seed 3.

void expect_rejected(const std::function<void()>& get, const std::string& flag,
                     const std::string& token) {
  expect_message_names_flag(get, flag);
  expect_message_names_flag(get, "'" + token + "'");
}

TEST(ArgParser, IntRejectsPartialAndNonNumericValues) {
  const auto args = make({"--nodes", "2x", "--seed", "3.7", "--rank",
                          "two", "--batch", "99999999999999999999"});
  expect_rejected([&] { args.get_int("nodes", 1); }, "--nodes", "2x");
  expect_rejected([&] { args.get_int("seed", 1); }, "--seed", "3.7");
  expect_rejected([&] { args.get_int("rank", 1); }, "--rank", "two");
  expect_rejected([&] { args.get_int("batch", 1); }, "--batch",
                  "99999999999999999999");
}

TEST(ArgParser, DoubleRejectsPartialAndNonNumericValues) {
  const auto args = make({"--lr", "0.01x", "--collective-deadline", "five",
                          "--refresh-lr=1e-3"});
  expect_rejected([&] { args.get_double("lr", 0.0); }, "--lr", "0.01x");
  expect_rejected([&] { args.get_double("collective-deadline", 0.0); },
                  "--collective-deadline", "five");
  EXPECT_DOUBLE_EQ(args.get_double("refresh-lr", 0.0), 1e-3);
}

TEST(ArgParser, IntListRejectsABadElement) {
  const auto args = make({"--nodes", "1,2x,4", "--ranks", "1,,3"});
  expect_rejected([&] { args.get_int_list("nodes", {}); }, "--nodes", "2x");
  // Empty elements are skipped, as before.
  EXPECT_EQ(args.get_int_list("ranks", {}),
            (std::vector<std::int64_t>{1, 3}));
}

TEST(ArgParser, BoolRejectsUnknownWords) {
  const auto args = make({"--elastic=maybe", "--resume=no", "--json=0",
                          "--filter=yes"});
  expect_rejected([&] { args.get_bool("elastic", false); }, "--elastic",
                  "maybe");
  EXPECT_FALSE(args.get_bool("resume", true));
  EXPECT_FALSE(args.get_bool("json", true));
  EXPECT_TRUE(args.get_bool("filter", false));
}

}  // namespace
}  // namespace dynkge::util
