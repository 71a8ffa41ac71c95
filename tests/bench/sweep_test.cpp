// The sweep harness's determinism contract: per-row seeds are pure
// functions of row identity, results merge in submission order, and the
// rendered BENCH json is byte-identical at every --jobs value.
#include "bench_harness/sweep.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "bench_harness/json.h"
#include "bench_harness/tables.h"

namespace csca::bench {
namespace {

RowSpec row(const char* algo, const char* family, int n, double param = 0) {
  return RowSpec{algo, family, n, param};
}

// A cheap deterministic table: metrics are pure functions of the row
// identity, so any cross-thread leakage shows up as a diff.
SweepSpec synthetic_spec(int rows) {
  SweepSpec spec;
  spec.table = "SYN";
  spec.title = "synthetic";
  spec.param_name = "p";
  spec.run = [](const RowSpec& r) {
    RowResult out;
    out.measured.push_back(
        {"blend", r.n * 1000.0 + r.param + static_cast<double>(r.seed % 97)});
    out.checks.push_back({"unit", r.param, r.param + 1.0, 1.0, 0.0});
    return out;
  };
  for (int i = 0; i < rows; ++i) {
    spec.rows.push_back(row("a", i % 2 ? "x" : "y", 8 + i, i * 0.5));
  }
  spec.smoke_rows.push_back(row("a", "x", 8, 0));
  finalize_rows(spec);
  return spec;
}

TEST(RowSeed, PureFunctionOfIdentity) {
  const SweepSpec spec = synthetic_spec(4);
  for (const RowSpec& r : spec.rows) {
    EXPECT_EQ(r.seed, row_seed("SYN", r));
  }
  // Any identity field moves the seed.
  RowSpec base = row("a", "x", 8, 0);
  EXPECT_NE(row_seed("SYN", base), row_seed("OTHER", base));
  EXPECT_NE(row_seed("SYN", base), row_seed("SYN", row("b", "x", 8, 0)));
  EXPECT_NE(row_seed("SYN", base), row_seed("SYN", row("a", "z", 8, 0)));
  EXPECT_NE(row_seed("SYN", base), row_seed("SYN", row("a", "x", 9, 0)));
  EXPECT_NE(row_seed("SYN", base), row_seed("SYN", row("a", "x", 8, 2)));
  // ... and sibling rows / row order don't.
  EXPECT_EQ(row_seed("SYN", base), row_seed("SYN", row("a", "x", 8, 0)));
}

TEST(BoundCheck, PassBand) {
  BoundCheck check{"c", /*measured=*/150, /*bound=*/100, /*tolerance=*/2.0,
                   /*min_ratio=*/0};
  EXPECT_DOUBLE_EQ(check.ratio(), 1.5);
  EXPECT_TRUE(check.pass());
  check.measured = 250;
  EXPECT_FALSE(check.pass());  // above tolerance
  // min_ratio flips the polarity: the row must EXCEED the bound.
  BoundCheck runaway{"r", 150, 100, 1.0e6, /*min_ratio=*/2.0};
  EXPECT_FALSE(runaway.pass());
  runaway.measured = 500;
  EXPECT_TRUE(runaway.pass());
}

TEST(SweepRunner, JobsCountIsInvisibleInTheRenderedJson) {
  const SweepSpec spec = synthetic_spec(23);
  const TableResult seq = SweepRunner({/*jobs=*/1, false}).run(spec);
  const TableResult par = SweepRunner({/*jobs=*/4, false}).run(spec);
  EXPECT_EQ(render_table_json(seq), render_table_json(par));
}

TEST(SweepRunner, RealTableIsJobsInvariantToo) {
  const std::vector<SweepSpec> tables = builtin_tables();
  const SweepSpec* f2 = find_table(tables, "F2");
  ASSERT_NE(f2, nullptr);
  const TableResult seq = SweepRunner({/*jobs=*/1, /*smoke=*/true}).run(*f2);
  const TableResult par = SweepRunner({/*jobs=*/4, /*smoke=*/true}).run(*f2);
  EXPECT_EQ(render_table_json(seq), render_table_json(par));
  EXPECT_TRUE(seq.smoke);
}

TEST(SweepRunner, RunAllKeepsSpecOrderAndPoolsRows) {
  SweepSpec a = synthetic_spec(3);
  SweepSpec b = synthetic_spec(5);
  b.table = "SYN2";
  finalize_rows(b);
  const auto results = SweepRunner({4, false}).run_all({a, b});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].table, "SYN");
  EXPECT_EQ(results[1].table, "SYN2");
  EXPECT_EQ(results[0].rows.size(), 3u);
  EXPECT_EQ(results[1].rows.size(), 5u);
  // Rows come back in submission order with their own spec attached.
  for (std::size_t i = 0; i < results[1].rows.size(); ++i) {
    EXPECT_EQ(results[1].rows[i].spec.n, b.rows[i].n);
  }
}

TEST(SweepRunner, RowExceptionBecomesRowFailureNotACrash) {
  SweepSpec spec = synthetic_spec(3);
  spec.run = [](const RowSpec& r) -> RowResult {
    if (r.n == 9) throw std::runtime_error("boom");
    RowResult out;
    out.checks.push_back({"unit", 1, 2, 1.0, 0});
    return out;
  };
  const TableResult result = SweepRunner({2, false}).run(spec);
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_FALSE(result.rows[1].pass());
  EXPECT_TRUE(result.rows[1].failed);
  EXPECT_NE(result.rows[1].error.find("boom"), std::string::npos);
  EXPECT_TRUE(result.rows[0].pass());
  EXPECT_FALSE(result.pass());
  // The failed row still renders (with its error) instead of vanishing.
  EXPECT_NE(render_table_json(result).find("boom"), std::string::npos);
}

TEST(Json, DoublesAreLocaleProofAndEscaped) {
  EXPECT_EQ(format_double(0.25), "0.25");
  EXPECT_EQ(format_double(1.0 / 3.0), "0.3333333333");
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

}  // namespace
}  // namespace csca::bench
