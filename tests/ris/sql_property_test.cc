// Model-based property test: the relational engine against a trivial
// reference model (a vector of rows), under randomized statement streams.
// Every other step runs its statement as a prepared statement with bound
// parameters instead of SQL text, so both reach the same model state.
// Parameterized over seeds so each seed is an independent ctest case.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/ris/relational/database.h"

namespace hcm::ris::relational {
namespace {

struct ModelRow {
  int64_t k;
  int64_t a;
  std::string s;
};

// The reference implementation: a flat vector with linear scans.
class Model {
 public:
  Status Insert(int64_t k, int64_t a, const std::string& s) {
    for (const auto& r : rows_) {
      if (r.k == k) return Status::AlreadyExists("dup");
    }
    rows_.push_back(ModelRow{k, a, s});
    return Status::OK();
  }

  size_t UpdateAWhereALess(int64_t threshold, int64_t new_a) {
    size_t n = 0;
    for (auto& r : rows_) {
      if (r.a < threshold) {
        r.a = new_a;
        ++n;
      }
    }
    return n;
  }

  size_t UpdateByKey(int64_t k, int64_t new_a) {
    size_t n = 0;
    for (auto& r : rows_) {
      if (r.k == k) {
        r.a = new_a;
        ++n;
      }
    }
    return n;
  }

  size_t DeleteWhereAGreater(int64_t threshold) {
    size_t before = rows_.size();
    rows_.erase(std::remove_if(rows_.begin(), rows_.end(),
                               [&](const ModelRow& r) {
                                 return r.a > threshold;
                               }),
                rows_.end());
    return before - rows_.size();
  }

  std::vector<ModelRow> SelectWhereAInRange(int64_t lo, int64_t hi) const {
    std::vector<ModelRow> out;
    for (const auto& r : rows_) {
      if (r.a >= lo && r.a <= hi) out.push_back(r);
    }
    return out;
  }

  const std::vector<ModelRow>& rows() const { return rows_; }

 private:
  std::vector<ModelRow> rows_;
};

class SqlModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqlModelTest, RandomOpsAgreeWithModel) {
  Rng rng(GetParam());
  Database db("model-test");
  ASSERT_TRUE(
      db.Execute("create table t (k int primary key, a int, s str)").ok());
  Model model;
  auto prepare = [](const char* tmpl) {
    auto stmt = PrepareSql(tmpl);
    EXPECT_TRUE(stmt.ok()) << tmpl << ": " << stmt.status().ToString();
    return std::move(stmt).value();
  };
  PreparedStatement range_update =
      prepare("update t set a = $v where a < $1");
  PreparedStatement keyed_update = prepare("update t set a = $v where k = $1");
  PreparedStatement range_select =
      prepare("select k, a, s from t where a >= $1 and a <= $2");
  auto as_int = [](int64_t v) { return Value::Int(v); };

  for (int step = 0; step < 400; ++step) {
    const bool prepared = step % 2 == 1;
    switch (rng.Index(5)) {
      case 0: {  // insert (may collide on purpose)
        int64_t k = rng.UniformInt(0, 60);
        int64_t a = rng.UniformInt(-50, 50);
        std::string s = "s" + std::to_string(rng.UniformInt(0, 5));
        auto db_result = db.Execute(StrFormat(
            "insert into t values (%lld, %lld, '%s')",
            static_cast<long long>(k), static_cast<long long>(a), s.c_str()));
        Status model_result = model.Insert(k, a, s);
        EXPECT_EQ(db_result.ok(), model_result.ok()) << "step " << step;
        break;
      }
      case 1: {  // range update
        int64_t threshold = rng.UniformInt(-50, 50);
        int64_t new_a = rng.UniformInt(-50, 50);
        Value v = as_int(new_a);
        auto db_result =
            prepared ? db.Execute(range_update, {as_int(threshold)}, &v)
                     : db.Execute(StrFormat(
                           "update t set a = %lld where a < %lld",
                           static_cast<long long>(new_a),
                           static_cast<long long>(threshold)));
        ASSERT_TRUE(db_result.ok());
        EXPECT_EQ(db_result->affected_rows,
                  model.UpdateAWhereALess(threshold, new_a))
            << "step " << step;
        break;
      }
      case 2: {  // keyed update (index path)
        int64_t k = rng.UniformInt(0, 60);
        int64_t new_a = rng.UniformInt(-50, 50);
        Value v = as_int(new_a);
        auto db_result =
            prepared ? db.Execute(keyed_update, {as_int(k)}, &v)
                     : db.Execute(StrFormat(
                           "update t set a = %lld where k = %lld",
                           static_cast<long long>(new_a),
                           static_cast<long long>(k)));
        ASSERT_TRUE(db_result.ok());
        EXPECT_EQ(db_result->affected_rows, model.UpdateByKey(k, new_a))
            << "step " << step;
        break;
      }
      case 3: {  // range delete
        int64_t threshold = rng.UniformInt(-50, 50);
        auto db_result = db.Execute(StrFormat(
            "delete from t where a > %lld",
            static_cast<long long>(threshold)));
        ASSERT_TRUE(db_result.ok());
        EXPECT_EQ(db_result->affected_rows,
                  model.DeleteWhereAGreater(threshold))
            << "step " << step;
        break;
      }
      case 4: {  // range select, compare full row multisets
        int64_t lo = rng.UniformInt(-50, 0);
        int64_t hi = rng.UniformInt(0, 50);
        auto db_result =
            prepared ? db.Execute(range_select, {as_int(lo), as_int(hi)})
                     : db.Execute(StrFormat(
                           "select k, a, s from t where a >= %lld and a <= %lld",
                           static_cast<long long>(lo),
                           static_cast<long long>(hi)));
        ASSERT_TRUE(db_result.ok());
        auto expected = model.SelectWhereAInRange(lo, hi);
        ASSERT_EQ(db_result->rows.size(), expected.size()) << "step " << step;
        auto key_of = [](const Row& r) { return r[0].AsInt(); };
        std::vector<Row> got = db_result->rows;
        std::sort(got.begin(), got.end(),
                  [&](const Row& x, const Row& y) {
                    return key_of(x) < key_of(y);
                  });
        std::sort(expected.begin(), expected.end(),
                  [](const ModelRow& x, const ModelRow& y) {
                    return x.k < y.k;
                  });
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i][0], Value::Int(expected[i].k));
          EXPECT_EQ(got[i][1], Value::Int(expected[i].a));
          EXPECT_EQ(got[i][2], Value::Str(expected[i].s));
        }
        break;
      }
    }
  }
  // Final full-table comparison.
  auto all = db.Execute("select * from t");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->rows.size(), model.rows().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlModelTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace hcm::ris::relational
