// Pipe helpers shared by the serve and route pipeline tests: a pipe end
// as the streambuf the pipeline reads and writes, and a bounded read of
// whole frames from the client's end.
#pragma once

#include <poll.h>
#include <sys/ioctl.h>
#include <unistd.h>

#include <chrono>
#include <cstddef>
#include <streambuf>
#include <string>

namespace pooled {

/// A pipe end as a streambuf: reads are buffered and in_avail() reports
/// the bytes waiting in the pipe (FIONREAD), as std::cin does once it is
/// no longer synced with stdio; writes go straight through.
class PipeStreambuf final : public std::streambuf {
 public:
  explicit PipeStreambuf(int fd) : fd_(fd) {}

 protected:
  int_type underflow() override {
    const ssize_t got = ::read(fd_, buffer_, sizeof(buffer_));
    if (got <= 0) return traits_type::eof();
    setg(buffer_, buffer_, buffer_ + got);
    return traits_type::to_int_type(buffer_[0]);
  }
  std::streamsize showmanyc() override {
    int pending = 0;
    return ::ioctl(fd_, FIONREAD, &pending) == 0 ? pending : 0;
  }
  std::streamsize xsputn(const char* data, std::streamsize size) override {
    std::streamsize written = 0;
    while (written < size) {
      const ssize_t put = ::write(fd_, data + written,
                                  static_cast<std::size_t>(size - written));
      if (put <= 0) break;
      written += put;
    }
    return written;
  }
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    const char byte = traits_type::to_char_type(ch);
    return xsputn(&byte, 1) == 1 ? ch : traits_type::eof();
  }

 private:
  int fd_;
  char buffer_[4096];
};

/// Reads from `fd` until one whole end-framed frame has arrived, the
/// pipe closes, or `timeout` passes; returns what arrived.
inline std::string read_one_frame(int fd, std::chrono::seconds timeout) {
  std::string answer;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (answer.find("\nend\n") == std::string::npos &&
         std::chrono::steady_clock::now() < deadline) {
    pollfd ready{fd, POLLIN, 0};
    if (::poll(&ready, 1, 50) <= 0) continue;
    char chunk[4096];
    const ssize_t got = ::read(fd, chunk, sizeof(chunk));
    if (got <= 0) break;
    answer.append(chunk, static_cast<std::size_t>(got));
  }
  return answer;
}

}  // namespace pooled
