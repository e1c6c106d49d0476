// Machine-readable experiment reports: JSON documents and CSV rows for ExperimentResult, so
// external tooling (plotting scripts, dashboards) can consume runs without parsing tables —
// plus the oracle-gap and trace epilogues every plan runner (benches, fmoe_sim) prints.
#ifndef FMOE_SRC_HARNESS_REPORT_H_
#define FMOE_SRC_HARNESS_REPORT_H_

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/plan.h"

namespace fmoe {

class TraceRecorder;

// Serialises one result as a JSON object (stable key order, no external dependencies).
// `include_latencies` additionally embeds the per-request latency array (Fig. 10 CDF data).
void WriteResultJson(const ExperimentResult& result, bool include_latencies,
                     std::ostream& out);

// Serialises several results as a JSON array.
void WriteResultsJson(const std::vector<ExperimentResult>& results, bool include_latencies,
                      std::ostream& out);

// Serialises a whole plan run: one document with the plan seed and, per task (in plan
// order), its declaration (system, mode, seed, tags) alongside its result. This is what
// every figure bench emits for --out_json.
void WritePlanReportJson(const ExperimentPlan& plan,
                         const std::vector<ExperimentResult>& results,
                         bool include_latencies, std::ostream& out);

// CSV with one row per result. Header:
//   system,ttft_s,tpot_s,hit_rate,e2e_s,iterations,cache_capacity_gb,cache_used_gb,
//   demand_stall_s,sync_overhead_s
void WriteResultsCsv(const std::vector<ExperimentResult>& results, std::ostream& out);

// The clairvoyant-oracle gap table (DESIGN.md §5k): a banner, then one row per task that ran
// the oracle, labelled by its plan index and tags and led by the "% of optimum" figure.
void PrintOracleTable(const ExperimentPlan& plan, const std::vector<ExperimentResult>& results,
                      std::ostream& out);

// The same per-task gap numbers as one JSON document:
//   {"program":P,"tasks":[{"task":i,"system":S,"tags":[...],"oracle":{...}},...]}
void WriteOracleJson(const ExperimentPlan& plan, const std::vector<ExperimentResult>& results,
                     const std::string& program, std::ostream& out);

// Writes `recorder`'s Chrome trace (Perfetto-loadable) to `path`, then prints a line naming
// the file and the stall-attribution table to `log`. Returns false (after logging) if the
// file cannot be written.
bool WriteTraceReport(const TraceRecorder& recorder, const std::string& process_name,
                      const std::string& path, std::ostream& log);

// Writes the document `write` produces to `path`. Returns false, after an error line on
// stderr, if the file cannot be opened or written.
bool WriteJsonFile(const std::string& path, const std::function<void(std::ostream&)>& write);

// Escapes a string for embedding in JSON (quotes, backslashes, control characters).
std::string JsonEscape(const std::string& text);

}  // namespace fmoe

#endif  // FMOE_SRC_HARNESS_REPORT_H_
