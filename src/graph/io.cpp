#include "graph/io.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/parallel.hpp"

namespace tripoll::graph {

std::shared_ptr<const mapped_file> mapped_file::map(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("mapped_file: cannot open '" + path +
                             "': " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("mapped_file: fstat '" + path + "': " + err);
  }
  auto out = std::shared_ptr<mapped_file>(new mapped_file());
  out->size_ = static_cast<std::size_t>(st.st_size);
  if (out->size_ == 0) {
    ::close(fd);
    return out;
  }
  void* base = ::mmap(nullptr, out->size_, PROT_READ, MAP_PRIVATE, fd, 0);
  if (base != MAP_FAILED) {
    out->data_ = static_cast<const std::byte*>(base);
    out->mapped_ = true;
    ::close(fd);
    return out;
  }
  // Fallback (exotic filesystems): read the file into owned storage.  The
  // arena views are oblivious to which path provided the bytes.
  void* buf = std::malloc(out->size_);
  if (buf == nullptr) {
    ::close(fd);
    throw std::runtime_error("mapped_file: out of memory reading '" + path + "'");
  }
  std::size_t done = 0;
  while (done < out->size_) {
    const ssize_t got = ::read(fd, static_cast<char*>(buf) + done, out->size_ - done);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      std::free(buf);
      ::close(fd);
      throw std::runtime_error("mapped_file: short read on '" + path + "'");
    }
    done += static_cast<std::size_t>(got);
  }
  ::close(fd);
  out->owned_ = buf;
  out->data_ = static_cast<const std::byte*>(buf);
  return out;
}

mapped_file::~mapped_file() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::byte*>(data_), size_);
  }
  std::free(owned_);
}

std::string snapshot_rank_path(const std::string& prefix, int rank) {
  return prefix + ".r" + std::to_string(rank) + ".tpsnap";
}

namespace {

[[nodiscard]] bool parse_u64(std::string_view token, std::uint64_t& out) {
  const char* first = token.data();
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last;
}

[[nodiscard]] std::string_view next_token(std::string_view& rest) {
  std::size_t start = 0;
  while (start < rest.size() && (rest[start] == ' ' || rest[start] == '\t')) ++start;
  std::size_t end = start;
  while (end < rest.size() && rest[end] != ' ' && rest[end] != '\t') ++end;
  const auto token = rest.substr(start, end - start);
  rest.remove_prefix(end);
  return token;
}

}  // namespace

std::optional<parsed_edge> parse_edge_line(std::string_view line, bool* malformed) {
  if (malformed != nullptr) *malformed = false;
  // Trim trailing CR (Windows line endings) and leading whitespace.
  while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
    line.remove_suffix(1);
  }
  std::string_view rest = line;
  const auto first = next_token(rest);
  if (first.empty() || first.front() == '#' || first.front() == '%') return std::nullopt;

  parsed_edge e;
  if (!parse_u64(first, e.u)) {
    if (malformed != nullptr) *malformed = true;
    return std::nullopt;
  }
  const auto second = next_token(rest);
  if (!parse_u64(second, e.v)) {
    if (malformed != nullptr) *malformed = true;
    return std::nullopt;
  }
  const auto third = next_token(rest);
  if (!third.empty()) {
    std::uint64_t w = 0;
    if (parse_u64(third, w)) {
      e.weight = w;
    } else {
      if (malformed != nullptr) *malformed = true;
      return std::nullopt;
    }
  }
  return e;
}

namespace {

/// Sequential reader over one file: buffered pread()s at explicit offsets.
/// Each parser thread owns one instance, so no shared file position exists.
class file_reader {
 public:
  static constexpr std::size_t kBufBytes = 1 << 18;

  explicit file_reader(const std::string& path) : path_(path) {
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0) {
      throw std::runtime_error("read_edge_list: cannot open '" + path +
                               "': " + std::strerror(errno));
    }
    buf_ = std::malloc(kBufBytes);
    if (buf_ == nullptr) {
      ::close(fd_);
      throw std::runtime_error("read_edge_list: out of memory reading '" + path + "'");
    }
  }

  ~file_reader() {
    std::free(buf_);
    if (fd_ >= 0) ::close(fd_);
  }

  file_reader(const file_reader&) = delete;
  file_reader& operator=(const file_reader&) = delete;

  void seek(std::uint64_t offset) noexcept {
    offset_ = offset;
    avail_ = 0;
    consumed_ = 0;
  }

  /// Copy up to `n` bytes at the current offset into dst; returns the count
  /// (0 only at EOF).  Throws std::runtime_error on a read error -- an
  /// error must never masquerade as EOF, or one thread's share of the
  /// lines would silently vanish.
  std::size_t read(void* dst, std::size_t n) {
    if (consumed_ == avail_ && !refill()) return 0;
    const std::size_t take = std::min(n, avail_ - consumed_);
    std::memcpy(dst, static_cast<const char*>(buf_) + consumed_, take);
    consumed_ += take;
    offset_ += take;
    return take;
  }

 private:
  [[nodiscard]] bool refill() {
    for (;;) {
      const ssize_t got = ::pread(fd_, buf_, kBufBytes, static_cast<off_t>(offset_));
      if (got < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("read_edge_list: read error on '" + path_ + "'");
      }
      if (got == 0) return false;  // EOF
      consumed_ = 0;
      avail_ = static_cast<std::size_t>(got);
      return true;
    }
  }

  std::string path_;
  int fd_ = -1;
  void* buf_ = nullptr;
  std::uint64_t offset_ = 0;   ///< logical file offset of the next read()
  std::size_t avail_ = 0;      ///< valid bytes in buf_
  std::size_t consumed_ = 0;   ///< bytes of buf_ already handed out
};

/// Parse the lines STARTING in [nominal_begin, nominal_end), the ownership
/// rule shared by ranks and threads: the start is aligned forward to the
/// next line boundary, the final line runs past nominal_end to wherever it
/// ends.  This is the one parse loop behind both the serial and the
/// parallel ingest paths, so their per-line behavior cannot drift.
template <typename EdgeSink>
ingest_stats parse_slice(const std::string& path, std::uint64_t nominal_begin,
                         std::uint64_t nominal_end, const EdgeSink& sink) {
  ingest_stats stats;
  file_reader src(path);

  // Align the start forward to the next line boundary: the owner of a byte
  // range parses only lines that *start* inside it, so every line is parsed
  // by exactly one owner.  When the previous byte is already a newline, the
  // slice begins exactly at a line start and no alignment is needed.
  std::uint64_t begin = nominal_begin;
  if (begin > 0) {
    src.seek(begin - 1);
    std::uint64_t pos = begin - 1;  // position of the byte just read
    char ch = 0;
    std::size_t got = src.read(&ch, 1);
    while (got == 1 && ch != '\n') {
      got = src.read(&ch, 1);
      ++pos;
    }
    begin = pos + 1;  // first byte after the newline (== begin when the
                      // previous byte already was one)
  }

  src.seek(begin);
  std::uint64_t pos = begin;
  std::string line;
  line.reserve(128);
  std::vector<char> buf(1 << 16);
  bool stop = false;
  while (!stop) {
    const std::size_t got = src.read(buf.data(), buf.size());
    if (got == 0) break;
    for (std::size_t i = 0; i < got && !stop; ++i) {
      const char ch = buf[i];
      ++pos;
      if (ch != '\n') {
        line.push_back(ch);
        continue;
      }
      // A line belongs to this owner iff it started before nominal_end.
      const std::uint64_t line_start = pos - line.size() - 1;
      if (line_start >= nominal_end) {
        stop = true;
        break;
      }
      ++stats.lines;
      bool malformed = false;
      if (const auto e = parse_edge_line(line, &malformed)) {
        ++stats.edges;
        sink(*e);
      } else if (malformed) {
        ++stats.malformed;
      }
      stats.bytes += line.size() + 1;
      line.clear();
    }
  }
  // Trailing line without newline at EOF.
  if (!stop && !line.empty()) {
    const std::uint64_t line_start = pos - line.size();
    if (line_start < nominal_end) {
      ++stats.lines;
      bool malformed = false;
      if (const auto e = parse_edge_line(line, &malformed)) {
        ++stats.edges;
        sink(*e);
      } else if (malformed) {
        ++stats.malformed;
      }
      stats.bytes += line.size();
    }
  }
  return stats;
}

}  // namespace

ingest_stats read_edge_list(const comm::communicator& c, const std::string& path,
                            const std::function<void(const parsed_edge&)>& sink) {
  return read_edge_list(c, path, sink, ingest_options{1});
}

ingest_stats read_edge_list(const comm::communicator& c, const std::string& path,
                            const std::function<void(const parsed_edge&)>& sink,
                            const ingest_options& opts) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    throw std::runtime_error("read_edge_list: cannot open '" + path +
                             "': " + std::strerror(errno));
  }
  const auto file_size = static_cast<std::uint64_t>(st.st_size);

  const auto rank = static_cast<std::uint64_t>(c.rank());
  const auto nranks = static_cast<std::uint64_t>(c.size());
  const std::uint64_t r_begin = file_size * rank / nranks;
  const std::uint64_t r_end = file_size * (rank + 1) / nranks;

  const int threads = core::resolve_threads(opts.threads);
  if (threads == 1 || r_end - r_begin < 2) {
    return parse_slice(path, r_begin, r_end, sink);
  }

  // Split this rank's nominal byte range over the threads with the same
  // line-ownership rule ranks use; each thread parses its sub-slice into a
  // private shard.  Draining the shards in thread index order reproduces
  // the serial edge sequence bit for bit (lines are owned by ascending
  // start offset in both decompositions).
  struct shard {
    std::vector<parsed_edge> edges;
    ingest_stats stats;
  };
  const auto T = static_cast<std::uint64_t>(threads);
  const std::uint64_t span = r_end - r_begin;
  std::vector<shard> shards(static_cast<std::size_t>(threads));
  core::fork_join(threads, [&](int w) {
    const auto tw = static_cast<std::uint64_t>(w);
    const std::uint64_t t_begin = r_begin + span * tw / T;
    const std::uint64_t t_end = r_begin + span * (tw + 1) / T;
    if (t_begin == t_end) return;
    shard& out = shards[static_cast<std::size_t>(w)];
    out.stats = parse_slice(path, t_begin, t_end,
                            [&out](const parsed_edge& e) { out.edges.push_back(e); });
  });

  ingest_stats total;
  for (const auto& sh : shards) {
    for (const auto& e : sh.edges) sink(e);
    total.lines += sh.stats.lines;
    total.edges += sh.stats.edges;
    total.malformed += sh.stats.malformed;
    total.bytes += sh.stats.bytes;
  }
  return total;
}

edge_list_writer::edge_list_writer(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")) {
  if (file_ == nullptr) {
    throw std::runtime_error("edge_list_writer: cannot open '" + path +
                             "': " + std::strerror(errno));
  }
}

edge_list_writer::~edge_list_writer() {
  if (file_ != nullptr) std::fclose(static_cast<std::FILE*>(file_));
}

void edge_list_writer::write(vertex_id u, vertex_id v) {
  std::fprintf(static_cast<std::FILE*>(file_), "%llu %llu\n",
               static_cast<unsigned long long>(u), static_cast<unsigned long long>(v));
}

void edge_list_writer::write(vertex_id u, vertex_id v, std::uint64_t weight) {
  std::fprintf(static_cast<std::FILE*>(file_), "%llu %llu %llu\n",
               static_cast<unsigned long long>(u), static_cast<unsigned long long>(v),
               static_cast<unsigned long long>(weight));
}

}  // namespace tripoll::graph
