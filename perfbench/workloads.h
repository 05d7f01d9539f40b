#ifndef SMARTICEBERG_PERFBENCH_WORKLOADS_H_
#define SMARTICEBERG_PERFBENCH_WORKLOADS_H_

// The statements and data of the three benchmark workloads. The SQL is the
// paper's Fig. 1 workload (Q1-Q8), the selective transfer variants
// (Q5w-Q8w), the join-order variants (JO1-JO3), and the dominance mixes of
// the serving bench, spelled out here so the benchmark does not depend on
// any other bench source.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/database.h"
#include "src/workload/baseball.h"
#include "src/workload/object.h"

namespace perfbench {

struct Statement {
  std::string name;
  std::string sql;
  /// Body of the statement's first CTE ("" when it has none); the traced
  /// run times it as its own QueryIceberg call (engine.cte_block_us).
  std::string cte_sql;
};

/// Input sizes of one workload. The full scale is the one the ROADMAP's
/// numbers use; the tiny scale exists for the self-test.
struct Sizes {
  size_t score_rows = 3000;
  size_t object_rows = 256;
};

inline Sizes SizesFor(bool tiny) {
  Sizes s;
  if (tiny) {
    s.score_rows = 600;
    s.object_rows = 48;
  }
  return s;
}

// ---- SQL templates -------------------------------------------------------

inline std::string SkybandSql(const std::string& a1, const std::string& a2,
                              int k) {
  return "SELECT L.pid, L.year, L.round, COUNT(*) "
         "FROM score L, score R "
         "WHERE L." + a1 + " <= R." + a1 + " AND L." + a2 + " <= R." + a2 +
         " AND (L." + a1 + " < R." + a1 + " OR L." + a2 + " < R." + a2 +
         ") GROUP BY L.pid, L.year, L.round HAVING COUNT(*) <= " +
         std::to_string(k);
}

/// Body of the pairs CTE: player pairs with at least c seasons together.
/// `s2_filter` is an extra conjunct on s2 ("" for the stock query).
inline std::string PairCteBody(int c, const std::string& agg,
                               const std::string& s2_filter) {
  return "SELECT s1.pid AS pid1, s2.pid AS pid2, " + agg +
         "(s1.hits) AS hits1, " + agg + "(s1.hruns) AS hruns1, " + agg +
         "(s2.hits) AS hits2, " + agg +
         "(s2.hruns) AS hruns2 "
         "FROM score s1, score s2 "
         "WHERE s1.teamid = s2.teamid AND s1.year = s2.year "
         "AND s1.round = s2.round AND s1.pid < s2.pid" +
         s2_filter + " GROUP BY s1.pid, s2.pid HAVING COUNT(*) >= " +
         std::to_string(c);
}

inline const char* kPairDominance =
    "R.hits1 >= L.hits1 AND R.hruns1 >= L.hruns1 "
    "AND R.hits2 >= L.hits2 AND R.hruns2 >= L.hruns2 "
    "AND (R.hits1 > L.hits1 OR R.hruns1 > L.hruns1 "
    "OR R.hits2 > L.hits2 OR R.hruns2 > L.hruns2)";

inline Statement PairsStatement(const std::string& name, int c, int k,
                                const std::string& agg) {
  std::string body = PairCteBody(c, agg, "");
  return {name,
          "WITH pair AS (" + body +
              ") SELECT L.pid1, L.pid2, COUNT(*) FROM pair L, pair R WHERE " +
              kPairDominance + " GROUP BY L.pid1, L.pid2 HAVING COUNT(*) <= " +
              std::to_string(k),
          body};
}

/// Pairs CTE windowed to recent seasons: s2's local predicate makes the
/// (teamid, year, round) transfer edge live.
inline Statement WindowedPairsStatement(const std::string& name, int c,
                                        int k, const std::string& agg,
                                        int min_year) {
  std::string body =
      PairCteBody(c, agg, " AND s2.year >= " + std::to_string(min_year));
  return {name,
          "WITH pair AS (" + body +
              ") SELECT L.pid1, L.pid2, COUNT(*) FROM pair L, pair R WHERE " +
              kPairDominance + " GROUP BY L.pid1, L.pid2 HAVING COUNT(*) <= " +
              std::to_string(k),
          body};
}

/// Pairs whose first player is on one team's roster in one season.
inline Statement RosterPairsStatement(const std::string& name, int c, int k,
                                      const std::string& agg, int teamid,
                                      int year) {
  std::string body = PairCteBody(c, agg, "");
  return {name,
          "WITH pair AS (" + body +
              ") SELECT L.pid1, L.pid2, COUNT(*) FROM pair L, pair R, score s "
              "WHERE L.pid1 = s.pid AND s.teamid = " +
              std::to_string(teamid) + " AND s.year = " +
              std::to_string(year) + " AND " + kPairDominance +
              " GROUP BY L.pid1, L.pid2 HAVING COUNT(*) <= " +
              std::to_string(k),
          body};
}

inline const char* kPlayerCteBody =
    "SELECT pid, AVG(hits) AS h, AVG(hruns) AS hr FROM score s "
    "GROUP BY pid HAVING COUNT(*) >= 1";

/// Q8: per-player averages, then a skyband over them.
inline Statement PlayerAvgSkybandStatement(const std::string& name, int k) {
  return {name,
          std::string("WITH player AS (") + kPlayerCteBody +
              ") SELECT L.pid, COUNT(*) FROM player L, player R "
              "WHERE L.h < R.h AND L.hr < R.hr "
              "GROUP BY L.pid HAVING COUNT(*) <= " +
              std::to_string(k),
          kPlayerCteBody};
}

/// Q8 restricted to one team's roster in one season.
inline Statement RosterSkybandStatement(const std::string& name, int k,
                                        int teamid, int year) {
  return {name,
          std::string("WITH player AS (") + kPlayerCteBody +
              ") SELECT L.pid, COUNT(*) FROM player L, player R, score s "
              "WHERE L.pid = s.pid AND s.teamid = " +
              std::to_string(teamid) + " AND s.year = " +
              std::to_string(year) +
              " AND L.h < R.h AND L.hr < R.hr "
              "GROUP BY L.pid HAVING COUNT(*) <= " +
              std::to_string(k),
          kPlayerCteBody};
}

/// Skyband anchored on a next-season roster, roster last in FROM order
/// (the join-order variants: the season-offset edge is transfer-blind).
inline std::string RosterAnchoredSkybandSql(const std::string& a1,
                                            const std::string& a2, int k,
                                            int teamid, int year,
                                            int min_stat) {
  std::string filter =
      min_stat > 0 ? " AND s.hits >= " + std::to_string(min_stat) : "";
  return "SELECT a.pid, a.year, COUNT(*) "
         "FROM score a, score b, score s "
         "WHERE a." + a1 + " <= b." + a1 + " AND a." + a2 + " <= b." + a2 +
         " AND (a." + a1 + " < b." + a1 + " OR a." + a2 + " < b." + a2 + ")" +
         " AND s.teamid = " + std::to_string(teamid) +
         " AND s.year = " + std::to_string(year) + filter +
         " AND s.pid = a.pid AND s.year = a.year + 1 "
         "GROUP BY a.pid, a.year HAVING COUNT(*) <= " + std::to_string(k);
}

// ---- Workload statement lists -------------------------------------------

/// The eight queries of the paper's Fig. 1: skybands over different
/// attribute pairs and thresholds (Q1-Q3), pairs queries with a CTE (Q4-Q7)
/// and the player-average skyband (Q8).
inline std::vector<Statement> Fig1Statements() {
  return {{"Q1", SkybandSql("hits", "hruns", 50), ""},
          {"Q2", SkybandSql("h2", "sb", 50), ""},
          {"Q3", SkybandSql("hits", "hruns", 200), ""},
          PairsStatement("Q4", 6, 20, "AVG"),
          PairsStatement("Q5", 4, 50, "SUM"),
          PairsStatement("Q6", 8, 10, "AVG"),
          PairsStatement("Q7", 4, 100, "SUM"),
          PlayerAvgSkybandStatement("Q8", 30)};
}

/// The team whose roster in `year` has the median number of players (the
/// smallest team id among equals). The roster-anchored statements use it
/// rather than a fixed team id, so their selectivity, and with it their
/// cost, stays the same under every seed.
inline int MedianRosterTeam(const iceberg::Table& score, int year) {
  const iceberg::Schema& schema = score.schema();
  const size_t pid = *schema.FindColumn("pid");
  const size_t yr = *schema.FindColumn("year");
  const size_t team = *schema.FindColumn("teamid");
  std::map<int64_t, std::set<int64_t>> roster;
  for (const iceberg::Row& row : score.rows()) {
    if (row[yr].AsInt() == year) {
      roster[row[team].AsInt()].insert(row[pid].AsInt());
    }
  }
  std::vector<std::pair<size_t, int64_t>> by_size;
  for (const auto& [t, pids] : roster) by_size.emplace_back(pids.size(), t);
  if (by_size.empty()) return 0;
  std::sort(by_size.begin(), by_size.end());
  return static_cast<int>(by_size[(by_size.size() - 1) / 2].second);
}

/// The selective transfer variants (Q5w-Q8w) and the join-order variants
/// (JO1-JO3), each anchored on a median-size roster of `score`.
inline std::vector<Statement> SelectiveStatements(const iceberg::Table& score) {
  const int t87 = MedianRosterTeam(score, 1987);
  const int t88 = MedianRosterTeam(score, 1988);
  const int t89 = MedianRosterTeam(score, 1989);
  return {RosterPairsStatement("Q5w", 4, 50, "SUM", t87, 1987),
          WindowedPairsStatement("Q6w", 2, 10, "AVG", 1989),
          RosterPairsStatement("Q7w", 4, 100, "SUM", t88, 1988),
          RosterSkybandStatement("Q8w", 30, t87, 1987),
          {"JO1", RosterAnchoredSkybandSql("hits", "hruns", 50, t87, 1987, 0),
           ""},
          {"JO2", RosterAnchoredSkybandSql("h2", "sb", 80, t88, 1988, 40), ""},
          {"JO3", RosterAnchoredSkybandSql("hits", "hruns", 30, t89, 1989, 0),
           ""}};
}

/// The serving mix over `object`: a hot part (one shape, HAVING literals
/// drawn from the seed) and a cold part (structurally distinct shapes).
inline std::vector<Statement> ServedStatements(uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x5e7fedull);
  std::vector<Statement> mix;
  for (int i = 0; i < 3; ++i) {
    int threshold = 24 + static_cast<int>(rng() % 8);
    mix.push_back(
        {"hot" + std::to_string(i),
         "SELECT L.id, COUNT(*) FROM object L, object R "
         "WHERE L.x <= R.x AND L.y <= R.y AND (L.x < R.x OR L.y < R.y) "
         "GROUP BY L.id HAVING COUNT(*) <= " + std::to_string(threshold),
         ""});
  }
  mix.push_back({"cold0",
                 "SELECT L.id, COUNT(*) FROM object L, object R "
                 "WHERE L.x <= R.x GROUP BY L.id HAVING COUNT(*) <= 40",
                 ""});
  mix.push_back({"cold1",
                 "SELECT L.id, COUNT(*) FROM object L, object R "
                 "WHERE L.y <= R.y AND L.x <= R.x "
                 "GROUP BY L.id HAVING COUNT(*) <= 60",
                 ""});
  mix.push_back({"cold2", "SELECT id FROM object WHERE x > 48 AND y > 40", ""});
  mix.push_back({"cold3",
                 "SELECT L.id, COUNT(*) FROM object L, object R "
                 "WHERE L.x < R.x AND L.y < R.y "
                 "GROUP BY L.id HAVING COUNT(*) <= 30",
                 ""});
  return mix;
}

// ---- Data ----------------------------------------------------------------

/// Side table the served writer inserts into; no read touches it, so read
/// results stay exactly checkable while the catalog version rotates.
inline constexpr const char* kSideTable = "side_log";

inline void Require(const iceberg::Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed (%s): %s\n", what,
                 st.ToString().c_str());
    std::exit(2);
  }
}

inline iceberg::BaseballConfig ScoreConfig(const Sizes& sizes, uint64_t seed) {
  iceberg::BaseballConfig config;
  config.num_rows = sizes.score_rows;
  config.num_players = sizes.score_rows / 12;
  config.stat_granularity = 4;
  config.seed = seed;
  return config;
}

/// Builds the database of one workload: `score` (or `object` for the
/// served mix) with its keys and indexes, plus the empty side table.
inline std::unique_ptr<iceberg::Database> BuildDatabase(bool served,
                                                        const Sizes& sizes,
                                                        uint64_t seed) {
  using namespace iceberg;
  auto db = std::make_unique<Database>();
  if (served) {
    ObjectConfig config;
    config.num_objects = sizes.object_rows;
    config.domain = 100;
    config.seed = seed;
    Require(RegisterObjects(db.get(), config), "object");
  } else {
    Require(RegisterBaseball(db.get(), ScoreConfig(sizes, seed)), "score");
  }
  Require(db->CreateTable(kSideTable, Schema({{"id", DataType::kInt64},
                                              {"v", DataType::kInt64}})),
          kSideTable);
  Require(db->DeclareKey(kSideTable, {"id"}), kSideTable);
  return db;
}

}  // namespace perfbench

#endif  // SMARTICEBERG_PERFBENCH_WORKLOADS_H_
