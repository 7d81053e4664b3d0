// aio_report: binary run journal -> aio-report-v1 JSON (and optional HTML
// and Chrome-trace exports).
//
//   aio_report <journal> [-o report.json] [--html report.html]
//              [--trace trace.json] [--summary]
//
// With no -o the JSON document goes to stdout.  --trace converts the journal
// (plus the report's critical-path segments) into a Chrome trace_event file
// for chrome://tracing / Perfetto.  --summary prints the terse text summary
// to stderr (so it never corrupts piped JSON).  Exit codes: 0 success,
// 2 usage or I/O error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>

#include "obs/analysis.hpp"
#include "obs/journal.hpp"
#include "obs/trace_export.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <journal> [-o report.json] [--html report.html] "
               "[--trace trace.json] [--summary]\n",
               argv0);
  return 2;
}

/// Writes `parts` back to back, so a large document never gets copied just
/// to append its trailing newline.  Checks after the close, which writes
/// whatever is still buffered (all of a small document).
bool write_file(const std::string& path, std::initializer_list<std::string_view> parts) {
  std::ofstream out(path);
  if (!out) return false;
  for (const std::string_view part : parts) out << part;
  out.close();
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string journal_path, json_path, html_path, trace_path;
  bool summary = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "-o") == 0) {
      if (++i >= argc) return usage(argv[0]);
      json_path = argv[i];
    } else if (std::strcmp(arg, "--html") == 0) {
      if (++i >= argc) return usage(argv[0]);
      html_path = argv[i];
    } else if (std::strcmp(arg, "--trace") == 0) {
      if (++i >= argc) return usage(argv[0]);
      trace_path = argv[i];
    } else if (std::strcmp(arg, "--summary") == 0) {
      summary = true;
    } else if (arg[0] == '-') {
      return usage(argv[0]);
    } else if (journal_path.empty()) {
      journal_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (journal_path.empty()) return usage(argv[0]);

  const auto journal = aio::obs::Journal::load(journal_path);
  if (!journal) {
    std::fprintf(stderr, "aio_report: cannot load journal %s\n", journal_path.c_str());
    return 2;
  }
  const aio::obs::Json report = aio::obs::analyze(*journal);

  if (json_path.empty()) {
    std::fputs(report.dump().c_str(), stdout);
    std::fputc('\n', stdout);
  } else if (!write_file(json_path, {report.dump(), "\n"})) {
    std::fprintf(stderr, "aio_report: cannot write %s\n", json_path.c_str());
    return 2;
  }
  if (!html_path.empty() && !write_file(html_path, {aio::obs::report_html(report)})) {
    std::fprintf(stderr, "aio_report: cannot write %s\n", html_path.c_str());
    return 2;
  }
  if (!trace_path.empty() &&
      !write_file(trace_path, {aio::obs::report_trace(*journal, report).dump(), "\n"})) {
    std::fprintf(stderr, "aio_report: cannot write %s\n", trace_path.c_str());
    return 2;
  }
  if (summary) std::fputs(aio::obs::report_summary(report).c_str(), stderr);
  return 0;
}
