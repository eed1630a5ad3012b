#include "common/output_file.h"

#include <stdexcept>
#include <utility>

namespace wadc {

OutputFile::OutputFile(std::string path)
    : path_(std::move(path)), out_(path_) {
  if (!out_) throw std::runtime_error("cannot open for writing: " + path_);
}

void OutputFile::close() {
  out_.close();
  if (!out_) throw std::runtime_error("write failed: " + path_);
}

void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& write) {
  OutputFile file(path);
  write(file.stream());
  file.close();
}

}  // namespace wadc
