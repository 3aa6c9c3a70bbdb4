#include "kge/serialize.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "kge/model_factory.hpp"
#include "util/fnv1a.hpp"

namespace dynkge::kge {
namespace {

constexpr char kModelMagic[4] = {'D', 'K', 'G', 'E'};
constexpr char kSnapshotMagic[4] = {'D', 'K', 'G', 'S'};
constexpr std::uint32_t kModelVersion = 1;
constexpr std::uint32_t kSnapshotVersion = 3;

/// Snapshot sections, in file order. The tags exist so corruption reports
/// name the section a reader was in.
constexpr const char* kSectionTags[] = {"MODL", "OPTE", "OPTR", "TRNR",
                                        "SCHD", "SELC", "RNGS", "RESD"};

// --- buffer-based codec ------------------------------------------------
// Files are built in memory and written atomically, and read back in one
// gulp with the checksum verified before any field is parsed — so a bit
// flip anywhere in the payload can never be interpreted as data.

class ByteWriter {
 public:
  template <typename T>
  void pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    buf_.append(reinterpret_cast<const char*>(&value), sizeof(T));
  }
  void bytes(const void* data, std::size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }
  void str(const std::string& s) {
    pod(static_cast<std::uint32_t>(s.size()));
    buf_.append(s);
  }
  const std::string& buffer() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class ByteReader {
 public:
  ByteReader(std::string_view data, std::string context)
      : data_(data), context_(std::move(context)) {}

  template <typename T>
  T pod(const char* field) {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    std::memcpy(&value, need(sizeof(T), field), sizeof(T));
    return value;
  }
  std::string str(const char* field, std::uint32_t max_size) {
    const auto size = pod<std::uint32_t>(field);
    if (size > max_size) {
      throw std::runtime_error(context_ + ": " + field + " length " +
                               std::to_string(size) + " exceeds limit " +
                               std::to_string(max_size));
    }
    return std::string(need(size, field), size);
  }
  const char* need(std::size_t size, const char* field) {
    if (size > data_.size() - pos_) {
      throw std::runtime_error(context_ + ": truncated while reading " +
                               field + " (need " + std::to_string(size) +
                               " bytes, have " +
                               std::to_string(data_.size() - pos_) + ")");
    }
    const char* p = data_.data() + pos_;
    pos_ += size;
    return p;
  }
  std::size_t remaining() const { return data_.size() - pos_; }
  void expect_exhausted() const {
    if (pos_ != data_.size()) {
      throw std::runtime_error(context_ + ": " +
                               std::to_string(data_.size() - pos_) +
                               " unread trailing bytes");
    }
  }
  const std::string& context() const { return context_; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
  std::string context_;
};

void write_matrix(ByteWriter& out, const EmbeddingMatrix& matrix) {
  out.pod(matrix.rows());
  out.pod(matrix.width());
  const auto flat = matrix.flat();
  out.bytes(flat.data(), flat.size_bytes());
}

EmbeddingMatrix read_matrix(ByteReader& in, const char* field) {
  const auto rows = in.pod<std::int32_t>(field);
  const auto width = in.pod<std::int32_t>(field);
  if (rows <= 0 || width <= 0) {
    throw std::runtime_error(in.context() + ": " + field +
                             " has non-positive shape " +
                             std::to_string(rows) + "x" +
                             std::to_string(width));
  }
  const std::size_t bytes =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(width) *
      sizeof(float);
  if (bytes > in.remaining()) {
    throw std::runtime_error(in.context() + ": " + field + " shape " +
                             std::to_string(rows) + "x" +
                             std::to_string(width) +
                             " exceeds the section payload");
  }
  EmbeddingMatrix matrix(rows, width);
  std::memcpy(matrix.flat().data(), in.need(bytes, field), bytes);
  return matrix;
}

/// Model body shared by the model file (whole payload) and the snapshot's
/// MODL section: name, rank, gamma, shapes, entity + relation data.
void write_model_body(ByteWriter& out, const KgeModel& model) {
  const ModelSpec spec = model.spec();
  out.str(spec.name);
  out.pod(spec.rank);
  out.pod(spec.margin);

  out.pod(model.entities().rows());
  out.pod(model.entities().width());
  out.pod(model.relations().rows());
  out.pod(model.relations().width());
  for (const auto* matrix : {&model.entities(), &model.relations()}) {
    const auto flat = matrix->flat();
    out.bytes(flat.data(), flat.size_bytes());
  }
}

std::unique_ptr<KgeModel> read_model_body(ByteReader& in) {
  const std::string name = in.str("model name", 64);
  const auto rank = in.pod<std::int32_t>("model rank");
  const auto gamma = in.pod<float>("model gamma");
  const auto num_entities = in.pod<std::int32_t>("num_entities");
  const auto entity_width = in.pod<std::int32_t>("entity_width");
  const auto num_relations = in.pod<std::int32_t>("num_relations");
  const auto relation_width = in.pod<std::int32_t>("relation_width");

  std::unique_ptr<KgeModel> model;
  try {
    model = make_model(name, num_entities, num_relations, rank, gamma);
  } catch (const std::invalid_argument& error) {
    throw std::runtime_error(in.context() + ": " + error.what());
  }
  if (model->entities().width() != entity_width ||
      model->relations().width() != relation_width) {
    throw std::runtime_error(
        in.context() + ": shape mismatch (file says widths " +
        std::to_string(entity_width) + "/" + std::to_string(relation_width) +
        ", model '" + name + "' rank " + std::to_string(rank) + " implies " +
        std::to_string(model->entities().width()) + "/" +
        std::to_string(model->relations().width()) + ")");
  }
  for (auto* matrix : {&model->entities(), &model->relations()}) {
    auto flat = matrix->flat();
    std::memcpy(flat.data(), in.need(flat.size_bytes(), "embedding data"),
                flat.size_bytes());
  }
  return model;
}

// --- crash-consistent file I/O -----------------------------------------

void throw_errno(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " " + path + ": " + std::strerror(errno));
}

/// Test-only write(2) interposition (set_write_syscall_hook_for_testing).
WriteSyscallHook g_write_hook = nullptr;

ssize_t checked_write(const std::string& tmp, int fd, const void* buf,
                      std::size_t count) {
  if (g_write_hook != nullptr) return g_write_hook(tmp, fd, buf, count);
  return ::write(fd, buf, count);
}

/// Write `bytes` to `path` so that a kill at any byte boundary leaves
/// either the previous file or the complete new one: stage to a temp file
/// in the same directory, fsync, rename over the target, fsync the
/// directory. `test_kill_after_bytes` (see SnapshotWriteOptions) stops
/// after a prefix and raises SIGKILL — the crash-consistency tests use it
/// to prove the rename never exposes a torn file. `test_write_errno`
/// simulates a failing disk (ENOSPC, EIO) on the first write. Any write
/// failure unlinks the torn temp file before throwing, so the previous
/// snapshot is never shadowed.
void write_file_atomic(const std::string& path, const std::string& bytes,
                       std::int64_t test_kill_after_bytes = -1,
                       int test_write_errno = 0) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("cannot create", tmp);

  if (test_write_errno != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    errno = test_write_errno;
    throw_errno("write failed for", tmp);
  }
  std::size_t limit = bytes.size();
  if (test_kill_after_bytes >= 0) {
    limit = std::min(limit, static_cast<std::size_t>(test_kill_after_bytes));
  }
  std::size_t written = 0;
  while (written < limit) {
    const ssize_t n =
        checked_write(tmp, fd, bytes.data() + written, limit - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw_errno("write failed for", tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  if (test_kill_after_bytes >= 0) {
    // The torn prefix reaches the disk, the rename never happens.
    ::fsync(fd);
    ::raise(SIGKILL);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw_errno("fsync failed for", tmp);
  }
  if (::close(fd) != 0) throw_errno("close failed for", tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw_errno("rename failed for", tmp);
  }
  // Persist the rename itself.
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
}

/// Verify magic, version, and the trailing FNV-1a checksum of a sealed
/// byte stream and return the payload (the bytes between the version and
/// the hash). `source` names the origin (file path or in-memory buffer)
/// in failure messages, which carry `what` + source + the expected vs.
/// found values.
std::string verify_payload(std::string_view data, const std::string& what,
                           const std::string& source,
                           const char expected_magic[4],
                           std::uint32_t expected_version) {
  const std::string& path = source;  // keeps the message wording below
  const std::size_t header = sizeof(kModelMagic) + sizeof(std::uint32_t);
  if (data.size() < header + sizeof(std::uint64_t)) {
    throw std::runtime_error(what + ": " + path + ": truncated file (" +
                             std::to_string(data.size()) +
                             " bytes is smaller than any valid header)");
  }
  if (std::memcmp(data.data(), expected_magic, 4) != 0) {
    throw std::runtime_error(
        what + ": " + path + ": bad magic (expected '" +
        std::string(expected_magic, 4) + "', found '" +
        std::string(data.data(), 4) + "')");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, data.data() + 4, sizeof(version));
  if (version != expected_version) {
    throw std::runtime_error(
        what + ": " + path + ": unsupported format version (expected " +
        std::to_string(expected_version) + ", found " +
        std::to_string(version) + ")");
  }

  std::uint64_t stored_hash = 0;
  std::memcpy(&stored_hash, data.data() + data.size() - sizeof(stored_hash),
              sizeof(stored_hash));
  const std::uint64_t hash =
      util::fnv1a(data.data(), data.size() - sizeof(stored_hash));
  if (hash != stored_hash) {
    throw std::runtime_error(
        what + ": " + path +
        ": checksum mismatch — the file is truncated or corrupted (format "
        "version " +
        std::to_string(version) + ")");
  }
  return std::string(
      data.substr(header, data.size() - header - sizeof(stored_hash)));
}

/// Slurp `path` (binary); failure messages carry `what`.
std::string read_file(const std::string& path, const std::string& what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(what + ": cannot open " + path);
  }
  std::ostringstream content;
  content << in.rdbuf();
  return std::move(content).str();
}

/// read_file + verify_payload in one step, for the file-based loaders.
std::string read_verified_payload(const std::string& path,
                                  const std::string& what,
                                  const char expected_magic[4],
                                  std::uint32_t expected_version) {
  return verify_payload(read_file(path, what), what, path, expected_magic,
                        expected_version);
}

/// Assemble magic + version + payload + trailing hash.
std::string seal(const char magic[4], std::uint32_t version,
                 const std::string& payload) {
  std::string file;
  file.reserve(payload.size() + 16);
  file.append(magic, 4);
  file.append(reinterpret_cast<const char*>(&version), sizeof(version));
  file.append(payload);
  const std::uint64_t hash = util::fnv1a(file.data(), file.size());
  file.append(reinterpret_cast<const char*>(&hash), sizeof(hash));
  return file;
}

void write_optimizer_section(ByteWriter& out,
                             const OptimizerSnapshot& optimizer) {
  out.pod(optimizer.step);
  write_matrix(out, optimizer.m);
  write_matrix(out, optimizer.v);
}

OptimizerSnapshot read_optimizer_section(ByteReader& in) {
  OptimizerSnapshot optimizer;
  optimizer.step = in.pod<std::int64_t>("optimizer step");
  if (optimizer.step < 0) {
    throw std::runtime_error(in.context() + ": negative optimizer step " +
                             std::to_string(optimizer.step));
  }
  optimizer.m = read_matrix(in, "first moments");
  optimizer.v = read_matrix(in, "second moments");
  if (optimizer.m.rows() != optimizer.v.rows() ||
      optimizer.m.width() != optimizer.v.width()) {
    throw std::runtime_error(in.context() +
                             ": moment matrices disagree on shape");
  }
  return optimizer;
}

}  // namespace

void save_model(const KgeModel& model, const std::string& path) {
  ByteWriter body;
  write_model_body(body, model);
  write_file_atomic(path, seal(kModelMagic, kModelVersion, body.buffer()));
}

std::unique_ptr<KgeModel> load_model(const std::string& path) {
  const std::string payload =
      read_verified_payload(path, "load_model", kModelMagic, kModelVersion);
  ByteReader in(payload, "load_model: " + path);
  auto model = read_model_body(in);
  in.expect_exhausted();
  return model;
}

std::string serialize_snapshot(const TrainingSnapshot& snapshot) {
  if (snapshot.model == nullptr) {
    throw std::runtime_error("save_snapshot: snapshot has no model");
  }
  if (snapshot.rank_rng_seeds.size() != snapshot.rank_residuals.size()) {
    throw std::runtime_error(
        "save_snapshot: rank_rng_seeds and rank_residuals disagree on the "
        "number of ranks");
  }

  std::string sections[8];
  {
    ByteWriter out;
    write_model_body(out, *snapshot.model);
    sections[0] = out.take();
  }
  {
    ByteWriter out;
    write_optimizer_section(out, snapshot.entity_opt);
    sections[1] = out.take();
  }
  {
    ByteWriter out;
    write_optimizer_section(out, snapshot.relation_opt);
    sections[2] = out.take();
  }
  {
    ByteWriter out;
    const TrainerSnapshot& t = snapshot.trainer;
    out.pod(t.next_epoch);
    out.pod(t.num_nodes);
    out.pod(t.seed);
    out.str(t.model_name);
    out.pod(t.embedding_rank);
    out.str(t.strategy_label);
    out.pod(t.total_sim_seconds);
    out.pod(t.final_val_accuracy);
    out.pod(t.checkpoints_written);
    sections[3] = out.take();
  }
  {
    ByteWriter out;
    const SchedulerSnapshot& s = snapshot.scheduler;
    out.pod(s.lr);
    out.pod(s.best_metric);
    out.pod(s.stale_epochs);
    out.pod(static_cast<std::uint8_t>(s.stopped));
    sections[4] = out.take();
  }
  {
    ByteWriter out;
    const CommSelectorSnapshot& s = snapshot.comm_selector;
    out.pod(static_cast<std::uint8_t>(s.switched));
    out.pod(s.last_allreduce_time);
    out.pod(s.epochs_recorded);
    out.pod(s.allreduce_epochs);
    out.pod(s.committed_arm);
    out.pod(s.base_probe_time);
    out.pod(s.topk_probe_time);
    sections[5] = out.take();
  }
  {
    ByteWriter out;
    out.pod(static_cast<std::uint32_t>(snapshot.rank_rng_seeds.size()));
    for (const std::uint64_t seed : snapshot.rank_rng_seeds) out.pod(seed);
    sections[6] = out.take();
  }
  {
    ByteWriter out;
    out.pod(static_cast<std::uint32_t>(snapshot.rank_residuals.size()));
    for (const std::string& blob : snapshot.rank_residuals) {
      out.pod(static_cast<std::uint64_t>(blob.size()));
      out.bytes(blob.data(), blob.size());
    }
    sections[7] = out.take();
  }

  ByteWriter payload;
  for (std::size_t i = 0; i < 8; ++i) {
    payload.bytes(kSectionTags[i], 4);
    payload.pod(static_cast<std::uint64_t>(sections[i].size()));
    payload.bytes(sections[i].data(), sections[i].size());
  }
  return seal(kSnapshotMagic, kSnapshotVersion, payload.buffer());
}

void write_snapshot_bytes(const std::string& sealed, const std::string& path,
                          const SnapshotWriteOptions& options) {
  write_file_atomic(path, sealed, options.test_kill_after_bytes,
                    options.test_write_errno);
}

void set_write_syscall_hook_for_testing(WriteSyscallHook hook) {
  g_write_hook = hook;
}

void save_snapshot(const TrainingSnapshot& snapshot, const std::string& path,
                   const SnapshotWriteOptions& options) {
  write_snapshot_bytes(serialize_snapshot(snapshot), path, options);
}

TrainingSnapshot deserialize_snapshot(std::string_view bytes,
                                      const std::string& source) {
  const std::string path = source;  // keeps the message wording below
  const std::string payload = verify_payload(
      bytes, "load_snapshot", source, kSnapshotMagic, kSnapshotVersion);

  // Split the payload into the 8 tagged sections.
  std::string_view sections[8];
  {
    ByteReader in(payload, "load_snapshot: " + path);
    for (std::size_t i = 0; i < 8; ++i) {
      const std::string tag(in.need(4, "section tag"), 4);
      if (tag != kSectionTags[i]) {
        throw std::runtime_error("load_snapshot: " + path + ": section " +
                                 std::to_string(i) + ": expected tag '" +
                                 kSectionTags[i] + "', found '" + tag + "'");
      }
      const auto size = in.pod<std::uint64_t>("section length");
      if (size > in.remaining()) {
        throw std::runtime_error(
            "load_snapshot: " + path + ": section '" + kSectionTags[i] +
            "' declares " + std::to_string(size) + " bytes but only " +
            std::to_string(in.remaining()) + " remain");
      }
      sections[i] = std::string_view(
          in.need(static_cast<std::size_t>(size), kSectionTags[i]),
          static_cast<std::size_t>(size));
    }
    in.expect_exhausted();
  }
  const auto section_reader = [&](std::size_t i) {
    return ByteReader(sections[i], "load_snapshot: " + path + ": section '" +
                                       kSectionTags[i] + "'");
  };

  TrainingSnapshot snapshot;
  {
    ByteReader in = section_reader(0);
    snapshot.model = read_model_body(in);
    in.expect_exhausted();
  }
  {
    ByteReader in = section_reader(1);
    snapshot.entity_opt = read_optimizer_section(in);
    in.expect_exhausted();
  }
  {
    ByteReader in = section_reader(2);
    snapshot.relation_opt = read_optimizer_section(in);
    in.expect_exhausted();
  }
  {
    ByteReader in = section_reader(3);
    TrainerSnapshot& t = snapshot.trainer;
    t.next_epoch = in.pod<std::int32_t>("next_epoch");
    t.num_nodes = in.pod<std::int32_t>("num_nodes");
    t.seed = in.pod<std::uint64_t>("seed");
    t.model_name = in.str("model_name", 64);
    t.embedding_rank = in.pod<std::int32_t>("embedding_rank");
    t.strategy_label = in.str("strategy_label", 256);
    t.total_sim_seconds = in.pod<double>("total_sim_seconds");
    t.final_val_accuracy = in.pod<double>("final_val_accuracy");
    t.checkpoints_written = in.pod<std::int32_t>("checkpoints_written");
    if (t.next_epoch < 0 || t.num_nodes < 1) {
      throw std::runtime_error(in.context() +
                               ": invalid progress fields (next_epoch " +
                               std::to_string(t.next_epoch) + ", num_nodes " +
                               std::to_string(t.num_nodes) + ")");
    }
    in.expect_exhausted();
  }
  {
    ByteReader in = section_reader(4);
    SchedulerSnapshot& s = snapshot.scheduler;
    s.lr = in.pod<double>("lr");
    s.best_metric = in.pod<double>("best_metric");
    s.stale_epochs = in.pod<std::int32_t>("stale_epochs");
    s.stopped = in.pod<std::uint8_t>("stopped") != 0;
    in.expect_exhausted();
  }
  {
    ByteReader in = section_reader(5);
    CommSelectorSnapshot& s = snapshot.comm_selector;
    s.switched = in.pod<std::uint8_t>("switched") != 0;
    s.last_allreduce_time = in.pod<double>("last_allreduce_time");
    s.epochs_recorded = in.pod<std::int32_t>("epochs_recorded");
    s.allreduce_epochs = in.pod<std::int32_t>("allreduce_epochs");
    s.committed_arm = in.pod<std::int32_t>("committed_arm");
    s.base_probe_time = in.pod<double>("base_probe_time");
    s.topk_probe_time = in.pod<double>("topk_probe_time");
    in.expect_exhausted();
  }
  {
    ByteReader in = section_reader(6);
    const auto count = in.pod<std::uint32_t>("rng stream count");
    snapshot.rank_rng_seeds.resize(count);
    for (auto& seed : snapshot.rank_rng_seeds) {
      seed = in.pod<std::uint64_t>("rng stream seed");
    }
    in.expect_exhausted();
  }
  {
    ByteReader in = section_reader(7);
    const auto count = in.pod<std::uint32_t>("residual blob count");
    snapshot.rank_residuals.resize(count);
    for (auto& blob : snapshot.rank_residuals) {
      const auto size = in.pod<std::uint64_t>("residual blob length");
      if (size > in.remaining()) {
        throw std::runtime_error(in.context() + ": residual blob of " +
                                 std::to_string(size) +
                                 " bytes exceeds the section payload");
      }
      blob.assign(in.need(static_cast<std::size_t>(size), "residual blob"),
                  static_cast<std::size_t>(size));
    }
    in.expect_exhausted();
  }
  if (snapshot.rank_rng_seeds.size() != snapshot.rank_residuals.size() ||
      static_cast<std::int32_t>(snapshot.rank_rng_seeds.size()) !=
          snapshot.trainer.num_nodes) {
    throw std::runtime_error(
        "load_snapshot: " + path +
        ": per-rank sections disagree with num_nodes (" +
        std::to_string(snapshot.rank_rng_seeds.size()) + " RNG streams, " +
        std::to_string(snapshot.rank_residuals.size()) +
        " residual blobs, num_nodes " +
        std::to_string(snapshot.trainer.num_nodes) + ")");
  }
  return snapshot;
}

TrainingSnapshot load_snapshot(const std::string& path) {
  return deserialize_snapshot(read_file(path, "load_snapshot"), path);
}

std::string encode_residual_maps(
    std::initializer_list<const SparseGrad*> stores) {
  const auto append = [](std::string& blob, const auto& value) {
    blob.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  std::string blob;
  for (const SparseGrad* store : stores) {
    const std::vector<SparseGrad::SlotRef>& slots = store->sorted_slots();
    append(blob, static_cast<std::uint32_t>(slots.size()));
    for (const SparseGrad::SlotRef& slot : slots) {
      const std::span<const float> values = store->row_at(slot.offset);
      append(blob, slot.id);
      append(blob, static_cast<std::uint32_t>(values.size()));
      blob.append(reinterpret_cast<const char*>(values.data()),
                  values.size_bytes());
    }
  }
  return blob;
}

std::vector<SparseGrad> decode_residual_maps(
    const std::string& blob,
    std::initializer_list<const EmbeddingMatrix*> matrices) {
  std::vector<SparseGrad> stores;
  stores.reserve(matrices.size());
  std::size_t pos = 0;
  const auto read = [&](void* out, std::size_t size) {
    if (size > blob.size() - pos) {
      throw std::runtime_error(
          "resume: residual blob truncated (snapshot RESD section)");
    }
    std::memcpy(out, blob.data() + pos, size);
    pos += size;
  };
  const auto reject = [&](std::size_t map, const std::string& what) {
    throw std::runtime_error("resume: residual map " + std::to_string(map) +
                             ": " + what + " (snapshot RESD section)");
  };
  for (const EmbeddingMatrix* matrix : matrices) {
    const std::size_t index = stores.size();
    SparseGrad& store = stores.emplace_back(matrix->width());
    std::uint32_t count = 0;
    read(&count, sizeof(count));
    std::int32_t previous = -1;
    for (std::uint32_t i = 0; i < count; ++i) {
      std::int32_t id = 0;
      std::uint32_t width = 0;
      read(&id, sizeof(id));
      read(&width, sizeof(width));
      if (id < 0 || id >= matrix->rows()) {
        reject(index, "row id " + std::to_string(id) + " outside [0, " +
                          std::to_string(matrix->rows()) + ")");
      }
      if (id <= previous) {
        reject(index, "row id " + std::to_string(id) +
                          " is not greater than the previous id " +
                          std::to_string(previous));
      }
      if (width != static_cast<std::uint32_t>(matrix->width())) {
        reject(index, "row " + std::to_string(id) + " has width " +
                          std::to_string(width) + ", the matrix " +
                          std::to_string(matrix->width()));
      }
      previous = id;
      read(store.accumulate(id).data(), width * sizeof(float));
    }
  }
  if (pos != blob.size()) {
    throw std::runtime_error(
        "resume: residual blob has trailing bytes (snapshot RESD section)");
  }
  return stores;
}

}  // namespace dynkge::kge
