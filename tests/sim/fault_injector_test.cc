/**
 * @file
 * Tests for the seeded link fault injector: determinism (same seed ->
 * same damage sequence, reset() replays it exactly), structural
 * soundness of sampled outcomes (in-bounds strictly increasing flip
 * offsets, single-bit masks, truncation prefixes), empirical agreement
 * of the geometric-gap flip sampler with the configured rate, and the
 * analytic companions (failureProbability, expectedAttempts) against
 * both closed forms and Monte Carlo estimates.
 */

#include <bit>
#include <cmath>

#include <gtest/gtest.h>

#include "sim/fault_injector.hh"

namespace cdma::sim {
namespace {

bool
sameOutcome(const FaultOutcome &a, const FaultOutcome &b)
{
    return a.link_failed == b.link_failed && a.truncated == b.truncated &&
        a.truncate_to == b.truncate_to &&
        a.flip_offsets == b.flip_offsets && a.flip_masks == b.flip_masks;
}

TEST(FaultInjector, ZeroRatesAlwaysClean)
{
    FaultInjector injector{FaultConfig{}};
    for (int i = 0; i < 100; ++i) {
        const FaultOutcome outcome = injector.sample(1 << 20);
        EXPECT_TRUE(outcome.clean());
        EXPECT_FALSE(outcome.link_failed);
        EXPECT_FALSE(outcome.truncated);
        EXPECT_TRUE(outcome.flip_offsets.empty());
    }
    EXPECT_EQ(injector.crossingsSampled(), 100u);
    EXPECT_DOUBLE_EQ(injector.failureProbability(1 << 20), 0.0);
    EXPECT_DOUBLE_EQ(injector.expectedAttempts(1 << 20, 4), 1.0);
}

TEST(FaultInjector, SameSeedSameDamageSequence)
{
    FaultConfig config;
    config.bit_flip_rate_per_byte = 1e-4;
    config.truncate_rate = 0.05;
    config.link_failure_rate = 0.02;
    config.seed = 1234;

    FaultInjector a(config), b(config);
    for (int i = 0; i < 200; ++i) {
        const uint64_t bytes = 4096 + 977 * static_cast<uint64_t>(i);
        EXPECT_TRUE(sameOutcome(a.sample(bytes), b.sample(bytes))) << i;
    }
}

TEST(FaultInjector, ResetReplaysExactly)
{
    FaultConfig config;
    config.bit_flip_rate_per_byte = 5e-5;
    config.link_failure_rate = 0.01;
    FaultInjector injector(config);

    std::vector<FaultOutcome> first;
    for (int i = 0; i < 50; ++i)
        first.push_back(injector.sample(1 << 16));
    injector.reset();
    EXPECT_EQ(injector.crossingsSampled(), 0u);
    for (int i = 0; i < 50; ++i)
        EXPECT_TRUE(sameOutcome(injector.sample(1 << 16), first[i])) << i;
}

TEST(FaultInjector, OutcomesAreStructurallySound)
{
    FaultConfig config;
    config.bit_flip_rate_per_byte = 2e-4;
    config.truncate_rate = 0.2;
    config.link_failure_rate = 0.05;
    FaultInjector injector(config);

    const uint64_t bytes = 1 << 16;
    bool saw_flip = false, saw_truncate = false, saw_link = false;
    for (int i = 0; i < 2000; ++i) {
        const FaultOutcome outcome = injector.sample(bytes);
        if (outcome.link_failed) {
            // A lost crossing carries no other damage.
            saw_link = true;
            EXPECT_FALSE(outcome.truncated);
            EXPECT_TRUE(outcome.flip_offsets.empty());
            continue;
        }
        if (outcome.truncated) {
            saw_truncate = true;
            EXPECT_LT(outcome.truncate_to, bytes);
        } else {
            EXPECT_EQ(outcome.truncate_to, bytes);
        }
        ASSERT_EQ(outcome.flip_offsets.size(), outcome.flip_masks.size());
        EXPECT_LE(outcome.flip_offsets.size(),
                  config.max_flips_per_transfer);
        uint64_t prev = 0;
        bool have_prev = false;
        for (size_t k = 0; k < outcome.flip_offsets.size(); ++k) {
            saw_flip = true;
            // Flips land strictly increasing, inside the delivered
            // prefix, and each mask flips exactly one bit.
            EXPECT_LT(outcome.flip_offsets[k], outcome.truncate_to);
            if (have_prev) {
                EXPECT_GT(outcome.flip_offsets[k], prev);
            }
            prev = outcome.flip_offsets[k];
            have_prev = true;
            EXPECT_EQ(std::popcount(outcome.flip_masks[k]), 1);
        }
    }
    EXPECT_TRUE(saw_flip);
    EXPECT_TRUE(saw_truncate);
    EXPECT_TRUE(saw_link);
}

TEST(FaultInjector, FlipCountTracksConfiguredRate)
{
    FaultConfig config;
    config.bit_flip_rate_per_byte = 1e-4;
    FaultInjector injector(config);

    const uint64_t bytes = 1 << 18; // E[flips/crossing] ~ 26.2
    const int crossings = 400;
    uint64_t flips = 0;
    for (int i = 0; i < crossings; ++i)
        flips += injector.sample(bytes).flip_offsets.size();
    const double expected = config.bit_flip_rate_per_byte *
        static_cast<double>(bytes) * crossings;
    EXPECT_NEAR(static_cast<double>(flips), expected, 0.05 * expected);
}

TEST(FaultInjector, FailureProbabilityMatchesClosedFormAndMonteCarlo)
{
    FaultConfig config;
    config.bit_flip_rate_per_byte = 1e-5;
    config.truncate_rate = 0.03;
    config.link_failure_rate = 0.02;
    FaultInjector injector(config);

    // Closed form: 1 - (1-l)(1-t)(1-p)^n.
    const uint64_t bytes = 1 << 15;
    const double survive = (1.0 - config.link_failure_rate) *
        (1.0 - config.truncate_rate) *
        std::pow(1.0 - config.bit_flip_rate_per_byte,
                 static_cast<double>(bytes));
    // The injector may compose the factors in a different (equivalent)
    // order, so allow last-few-ulp drift on the 32K-byte power.
    const double q = injector.failureProbability(bytes);
    EXPECT_NEAR(q, 1.0 - survive, 1e-9);

    // Monotone in payload size: more bytes, more exposure.
    EXPECT_GT(injector.failureProbability(bytes * 16), q);
    EXPECT_LT(injector.failureProbability(bytes / 16), q);

    // Monte Carlo agreement of the sampler with its own analytics.
    const int crossings = 20000;
    int failed = 0;
    for (int i = 0; i < crossings; ++i)
        failed += injector.sample(bytes).clean() ? 0 : 1;
    const double empirical =
        static_cast<double>(failed) / static_cast<double>(crossings);
    EXPECT_NEAR(empirical, q, 0.02);
}

TEST(FaultInjector, ExpectedAttemptsIsCappedGeometricSum)
{
    FaultConfig config;
    config.link_failure_rate = 0.25; // payload-size-independent q
    const FaultInjector injector(config);
    const double q = injector.failureProbability(4096);
    EXPECT_DOUBLE_EQ(q, 0.25);

    // sum_{k=0}^{max-1} q^k, so capped below the uncapped 1/(1-q).
    EXPECT_DOUBLE_EQ(injector.expectedAttempts(4096, 1), 1.0);
    EXPECT_DOUBLE_EQ(injector.expectedAttempts(4096, 2), 1.0 + q);
    EXPECT_DOUBLE_EQ(injector.expectedAttempts(4096, 4),
                     1.0 + q + q * q + q * q * q);
    // At 64 terms the capped sum has converged to the uncapped limit
    // within double precision, so <=, and tightly so.
    EXPECT_LE(injector.expectedAttempts(4096, 64), 1.0 / (1.0 - q));
    EXPECT_NEAR(injector.expectedAttempts(4096, 64), 1.0 / (1.0 - q),
                1e-9);
}

} // namespace
} // namespace cdma::sim
