// Advanced pipeline: everything beyond the paper's core experiment in one
// walkthrough — CSV interchange, index persistence, a distance join, a
// three-way chain join, and the parallel join.
//
//   build/examples/advanced_pipeline

#include <cstdio>
#include <filesystem>

#include "datagen/io.h"
#include "join/cost_estimator.h"
#include "rsj.h"

int main() {
  using namespace rsj;
  const auto tmp = std::filesystem::temp_directory_path();

  // --- 1. generate, export and re-import a dataset (CSV interchange) ---
  StreetsConfig streets_config;
  streets_config.object_count = 15000;
  const Dataset streets = GenerateStreets(streets_config);
  const std::string csv_path = (tmp / "rsj_streets.csv").string();
  if (!WriteDatasetCsv(streets, csv_path)) {
    std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
    return 1;
  }
  const auto reloaded = ReadDatasetCsv(csv_path);
  std::printf("CSV round trip: wrote %zu objects, read back %zu\n",
              streets.size(), reloaded ? reloaded->size() : 0);

  // --- 2. index it, save the index, load it back (persistence) ---
  RTreeOptions topt;
  topt.page_size = kPageSize2K;
  PagedFile file(topt.page_size);
  RTree tree = BuildRTree(&file, streets.Mbrs(), topt);
  StoredTreeMeta meta;
  meta.root_page = tree.root_page();
  meta.height = tree.height();
  meta.size = tree.size();
  meta.options = tree.options();
  const std::string idx_path = (tmp / "rsj_streets.idx").string();
  if (!SaveIndexedRelation(file, meta, idx_path)) {
    std::fprintf(stderr, "cannot write %s\n", idx_path.c_str());
    return 1;
  }
  auto loaded = LoadIndexedRelation(idx_path);
  std::printf("index persisted and reloaded: %zu entries, height %d, "
              "valid: %s\n",
              loaded->tree->size(), loaded->tree->height(),
              loaded->tree->Validate().empty() ? "yes" : "NO");

  // --- 3. distance join: river chains within 0.002 of a street ---
  RiversConfig rivers_config;
  rivers_config.object_count = 12000;
  const Dataset rivers = GenerateRivers(rivers_config);
  PagedFile rivers_file(topt.page_size);
  const RTree rivers_tree =
      BuildRTree(&rivers_file, rivers.Mbrs(), topt);
  JoinOptions distance_join;
  distance_join.algorithm = JoinAlgorithm::kSJ4;
  distance_join.predicate = JoinPredicate::kWithinDistance;
  distance_join.epsilon = 0.002;
  const auto near_water =
      RunSpatialJoin(*loaded->tree, rivers_tree, distance_join);
  std::printf("\nstreets within 0.002 of a river/railway chain: %llu pairs "
              "(%llu disk reads)\n",
              static_cast<unsigned long long>(near_water.pair_count),
              static_cast<unsigned long long>(
                  near_water.stats.disk_reads));

  // --- 4. analytic cost estimate vs the measured join ---
  const JoinCostEstimate estimate =
      EstimateJoinCost(*loaded->tree, rivers_tree);
  JoinOptions plain;
  plain.algorithm = JoinAlgorithm::kSJ1;
  plain.buffer_bytes = 0;
  const auto measured = RunSpatialJoin(*loaded->tree, rivers_tree, plain);
  std::printf("\ncost model sanity (SJ1, no buffer):\n");
  std::printf("  estimated reads %.0f vs measured %llu\n",
              estimate.page_reads,
              static_cast<unsigned long long>(measured.stats.disk_reads));
  std::printf("  estimated result %.0f vs measured %llu\n",
              estimate.result_pairs,
              static_cast<unsigned long long>(measured.pair_count));

  // --- 5. three-way chain join: streets x rivers x regions ---
  RegionsConfig regions_config;
  regions_config.object_count = 4000;
  const Dataset regions = GenerateRegions(regions_config);
  PagedFile regions_file(topt.page_size);
  const RTree regions_tree =
      BuildRTree(&regions_file, regions.Mbrs(), topt);
  const auto streets_mbrs = streets.Mbrs();
  const auto rivers_mbrs = rivers.Mbrs();
  const auto regions_mbrs = regions.Mbrs();
  JoinOptions chain_options;
  const auto chain = RunChainSpatialJoin({{loaded->tree.get(), &streets_mbrs},
                                          {&rivers_tree, &rivers_mbrs},
                                          {&regions_tree, &regions_mbrs}},
                                         chain_options);
  std::printf("\n3-way chain join (street ~ river ~ region): %llu tuples\n",
              static_cast<unsigned long long>(chain.tuple_count));

  // --- 6. parallel join ---
  JoinOptions par_options;
  par_options.algorithm = JoinAlgorithm::kSJ4;
  ParallelExecutorOptions exec_options;
  exec_options.num_threads = 8;
  const auto parallel = RunParallelSpatialJoin(*loaded->tree, rivers_tree,
                                               par_options, exec_options);
  std::printf("\nparallel SJ4 with 8 workers: %llu pairs across %zu "
              "partitions\n",
              static_cast<unsigned long long>(parallel.pair_count),
              parallel.worker_stats.size());

  std::filesystem::remove(csv_path);
  std::filesystem::remove(idx_path);
  return 0;
}
