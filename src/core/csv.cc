#include "core/csv.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <fstream>
#include <sstream>

namespace caqp {

namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> SplitCells(const std::string& line) {
  std::vector<std::string> out;
  std::string cell;
  std::stringstream ss(line);
  while (std::getline(ss, cell, ',')) out.push_back(Trim(cell));
  if (!line.empty() && line.back() == ',') out.push_back("");
  return out;
}

}  // namespace

Result<CsvTable> ParseCsv(const std::string& text) {
  CsvTable table;
  std::stringstream ss(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(ss, line)) {
    ++line_no;
    if (Trim(line).empty()) continue;
    std::vector<std::string> cells = SplitCells(line);
    if (table.column_names.empty()) {
      table.column_names = std::move(cells);
      if (table.column_names.empty()) {
        return Status::InvalidArgument("empty CSV header");
      }
      continue;
    }
    if (cells.size() != table.column_names.size()) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": expected " +
                                     std::to_string(table.column_names.size()) +
                                     " cells, got " +
                                     std::to_string(cells.size()));
    }
    std::vector<double> row(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      char* end = nullptr;
      row[i] = std::strtod(cells[i].c_str(), &end);
      if (end == cells[i].c_str() || *end != '\0') {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": non-numeric cell '" + cells[i] +
                                       "'");
      }
    }
    table.rows.push_back(std::move(row));
  }
  if (table.column_names.empty()) {
    return Status::InvalidArgument("empty CSV input");
  }
  return table;
}

Result<CsvTable> LoadCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return ParseCsv(buf.str());
}

Result<Dataset> DatasetFromCsv(const CsvTable& table,
                               const std::vector<CsvColumnSpec>& specs) {
  if (specs.empty()) return Status::InvalidArgument("no columns selected");
  if (table.rows.empty()) return Status::InvalidArgument("CSV has no rows");

  std::vector<size_t> col_idx;
  Schema schema;
  for (const CsvColumnSpec& spec : specs) {
    auto it = std::find(table.column_names.begin(), table.column_names.end(),
                        spec.name);
    if (it == table.column_names.end()) {
      return Status::NotFound("CSV column '" + spec.name + "' not found");
    }
    if (spec.bins < 2 || spec.bins > 65536) {
      return Status::InvalidArgument("column '" + spec.name +
                                     "': bins must be in [2, 65536]");
    }
    col_idx.push_back(static_cast<size_t>(it - table.column_names.begin()));
    schema.AddAttribute(spec.name, spec.bins, spec.cost);
  }

  // Fit one discretizer per selected column.
  std::vector<std::function<Value(double)>> to_bin(specs.size());
  std::vector<std::unique_ptr<UniformDiscretizer>> uniform(specs.size());
  std::vector<std::unique_ptr<QuantileDiscretizer>> quantile(specs.size());
  for (size_t a = 0; a < specs.size(); ++a) {
    if (specs[a].equi_depth) {
      std::vector<double> sample;
      sample.reserve(table.rows.size());
      for (const auto& row : table.rows) sample.push_back(row[col_idx[a]]);
      quantile[a] =
          std::make_unique<QuantileDiscretizer>(std::move(sample),
                                                specs[a].bins);
      to_bin[a] = [d = quantile[a].get()](double v) { return d->ToBin(v); };
    } else {
      double lo = table.rows[0][col_idx[a]];
      double hi = lo;
      for (const auto& row : table.rows) {
        lo = std::min(lo, row[col_idx[a]]);
        hi = std::max(hi, row[col_idx[a]]);
      }
      if (lo == hi) {
        // A constant column carries no information; widen artificially so
        // the discretizer is well-formed (all values land in bin 0).
        hi = lo + 1.0;
      }
      uniform[a] = std::make_unique<UniformDiscretizer>(lo, hi,
                                                        specs[a].bins);
      to_bin[a] = [d = uniform[a].get()](double v) { return d->ToBin(v); };
    }
  }

  Dataset ds(schema);
  Tuple t(specs.size());
  for (const auto& row : table.rows) {
    for (size_t a = 0; a < specs.size(); ++a) {
      t[a] = to_bin[a](row[col_idx[a]]);
    }
    ds.Append(t);
  }
  return ds;
}

}  // namespace caqp
