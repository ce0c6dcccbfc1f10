// CSV reading/writing used by the bench harness to dump reproducible series
// (bandwidth traces, reward curves) alongside the printed tables.
#pragma once

#include <string>
#include <vector>

namespace cadmc::util {

class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header);

  void add_row(const std::vector<std::string>& cells);
  void add_row(const std::vector<double>& cells);

  /// Renders the whole document; header first.
  std::string to_string() const;

  /// Writes to a file; returns false on I/O failure.
  bool save(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Parses a CSV document (no quoting support needed for our numeric dumps).
/// Returns rows including the header row.
std::vector<std::vector<std::string>> parse_csv(const std::string& text);

/// Loads a file into a string; returns false on failure.
bool read_file(const std::string& path, std::string& out);

/// Writes a string to a file (truncating); returns false on failure.
bool write_file(const std::string& path, const std::string& content);

}  // namespace cadmc::util
