//===- Format.h - Small string formatting utilities ------------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style formatting into std::string, an append-only integer writer
/// for hot printers, plus table-rendering helpers used by the benchmark
/// harnesses to print paper-style tables.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_SUPPORT_FORMAT_H
#define CODEREP_SUPPORT_FORMAT_H

#include <charconv>
#include <cstdarg>
#include <cstdint>
#include <string>
#include <vector>

namespace coderep {

/// Formats like sprintf but returns a std::string.
std::string format(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

/// Appends \p V in decimal, exactly as "%lld" prints it, without a
/// temporary string.
inline void appendInt(std::string &Out, int64_t V) {
  char Buf[20]; // "-9223372036854775808"
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

/// Renders a percentage difference the way the paper prints them, e.g.
/// "+56.53%" or "-5.71%". \p New and \p Old are absolute values.
std::string percentChange(double New, double Old);

/// Renders \p Value as "+x.xx%"/"-x.xx%" (already a percentage delta).
std::string signedPercent(double Value);

/// A simple fixed-width text table. Columns are sized to their widest cell.
class TextTable {
public:
  /// Appends a row of cells.
  void addRow(std::vector<std::string> Cells);

  /// Appends a horizontal separator row.
  void addSeparator();

  /// Renders the table; every row is terminated by '\n'.
  std::string render() const;

private:
  struct Row {
    bool Separator = false;
    std::vector<std::string> Cells;
  };
  std::vector<Row> Rows;
};

} // namespace coderep

#endif // CODEREP_SUPPORT_FORMAT_H
