// Figure 16: CPU memory footprint of the Expert Map Store at different capacities (1K - 32K
// maps) for the three models, plus a measured footprint from actually filling a store.
//
// Pure sizing-model arithmetic — no experiments to plan — so this bench only borrows the
// shared flag scaffold and the custom JSON writer.
#include <iostream>

#include "bench/bench_common.h"
#include "src/core/map_store.h"
#include "src/moe/embedding.h"

int main(int argc, char** argv) {
  using fmoe::AsciiTable;
  using namespace fmoe::bench;

  BenchFlags env;
  int exit_code = 0;
  if (!ParseBenchArgs(argc, argv, "bench_fig16_store_memory",
                      "Figure 16: Expert Map Store CPU memory footprint", &env, &exit_code)) {
    return exit_code;
  }

  const std::vector<size_t> capacities{1000, 2000, 4000, 8000, 16000, 32000};
  // footprint_mb[capacity index][model index].
  std::vector<std::vector<double>> footprint_mb;

  fmoe::PrintBanner(std::cout, "Figure 16: Expert Map Store CPU memory footprint (MB)");
  AsciiTable table({"store capacity", "Mixtral-8x7B", "Qwen1.5-MoE", "Phi-3.5-MoE"});
  for (size_t capacity : capacities) {
    std::vector<std::string> row{std::to_string(capacity / 1000) + "K"};
    std::vector<double> row_mb;
    for (const fmoe::ModelConfig& model : fmoe::AllPaperModels()) {
      fmoe::ExpertMapStore store(model, capacity, 3);
      const fmoe::EmbedderProfile embedder;
      const int embedding_dim = model.embedding_dim + 2 * embedder.phase_harmonics;
      const double mb = static_cast<double>(store.MemoryBytesAtCapacity(embedding_dim)) / 1e6;
      row_mb.push_back(mb);
      row.push_back(AsciiTable::Num(mb, 1));
    }
    footprint_mb.push_back(std::move(row_mb));
    table.AddRow(row);
  }
  table.Print(std::cout);

  // Cross-check the sizing model against a store actually filled with records.
  const fmoe::ModelConfig model = fmoe::MixtralConfig();
  fmoe::ExpertMapStore store(model, 1000, 3);
  fmoe::ExpertMap map(model.num_layers, model.experts_per_layer);
  for (int i = 0; i < 1000; ++i) {
    fmoe::StoredIteration record;
    record.map = map;
    record.embedding.assign(72, 0.1);
    record.request_id = static_cast<uint64_t>(i);
    store.Insert(std::move(record));
  }
  const double measured_mb = static_cast<double>(store.MemoryBytes()) / 1e6;
  std::cout << "measured footprint of a filled 1K Mixtral store: " << measured_mb << " MB\n";
  std::cout << "Expected shape (paper Fig. 16 / §6.7): Qwen1.5-MoE needs the most memory (60\n"
               "experts/layer widen the maps); even 32K maps stay under 200 MB; the paper's\n"
               "1K operating point costs only a few MB.\n";

  if (!env.out_json.empty()) {
    const bool ok = WriteJsonFile(env.out_json, [&](std::ostream& out) {
      const std::vector<fmoe::ModelConfig> models = fmoe::AllPaperModels();
      out << "{\n  \"models\": [";
      for (size_t m = 0; m < models.size(); ++m) {
        out << (m ? ", " : "") << "\"" << models[m].name << "\"";
      }
      out << "],\n  \"capacities\": [";
      for (size_t c = 0; c < capacities.size(); ++c) {
        out << (c ? ", " : "") << capacities[c];
      }
      out << "],\n  \"footprint_mb\": [\n";
      for (size_t c = 0; c < footprint_mb.size(); ++c) {
        out << "    [";
        for (size_t m = 0; m < footprint_mb[c].size(); ++m) {
          out << (m ? ", " : "") << footprint_mb[c][m];
        }
        out << "]" << (c + 1 < footprint_mb.size() ? "," : "") << "\n";
      }
      out << "  ],\n  \"measured_filled_1k_mixtral_mb\": " << measured_mb << "\n}\n";
    });
    if (!ok) {
      return 1;
    }
  }
  return 0;
}
