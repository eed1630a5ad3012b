// Checked writing of the files the tools export (run artifacts, reports,
// bench JSON): a file that cannot be opened or fully written is an error,
// never a silently short or empty file.
#pragma once

#include <fstream>
#include <functional>
#include <ostream>
#include <string>

namespace wadc {

// A file open for writing. The constructor throws std::runtime_error
// ("cannot open for writing: <path>") when the file cannot be opened.
class OutputFile {
 public:
  explicit OutputFile(std::string path);

  std::ostream& stream() { return out_; }

  // Flushes and closes the file; throws std::runtime_error("write failed:
  // <path>") when any write to it failed.
  void close();

 private:
  std::string path_;
  std::ofstream out_;
};

// Writes the file at `path` through `write` and closes it, throwing as
// OutputFile does.
void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& write);

}  // namespace wadc
