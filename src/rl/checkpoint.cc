#include "rl/checkpoint.hh"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hh"
#include "common/hash.hh"

namespace twig::rl {

namespace {

constexpr char kMagic[8] = {'T', 'W', 'I', 'G', 'C', 'K', 'P', 'T'};
constexpr std::uint32_t kVersion = 2;

template <typename T>
void
writePod(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

/** Hex rendering of raw magic bytes for mismatch diagnostics. */
std::string
hexBytes(const char *bytes, std::size_t n)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto b = static_cast<unsigned char>(bytes[i]);
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0x0f]);
    }
    return out;
}

/** Reads checkpoint fields off a stream, folding every byte it
 * consumes into the running checksum. */
class HashingReader
{
  public:
    HashingReader(std::istream &is, const std::string &context)
        : is_(is), context_(context)
    {
    }

    void
    read(char *out, std::size_t n, const char *what)
    {
        is_.read(out, static_cast<std::streamsize>(n));
        common::fatalIf(static_cast<std::size_t>(is_.gcount()) != n,
                        context_, ": truncated checkpoint ", what);
        hash_ = common::fnv1a(out, n, hash_);
    }

    template <typename T>
    T
    pod(const char *what)
    {
        T v{};
        read(reinterpret_cast<char *>(&v), sizeof(T), what);
        return v;
    }

    std::uint64_t hash() const { return hash_; }

  private:
    std::istream &is_;
    const std::string &context_;
    std::uint64_t hash_ = common::kFnvOffsetBasis;
};

} // namespace

std::vector<std::uint64_t>
bdqShape(const nn::BdqConfig &cfg)
{
    std::vector<std::uint64_t> shape;
    shape.push_back(cfg.numAgents);
    shape.push_back(cfg.stateDimPerAgent);
    shape.push_back(cfg.trunkHidden.size());
    for (std::size_t h : cfg.trunkHidden)
        shape.push_back(h);
    shape.push_back(cfg.agentHeadHidden);
    shape.push_back(cfg.branchHidden);
    shape.push_back(cfg.branchActions.size());
    for (std::size_t n : cfg.branchActions)
        shape.push_back(n);
    return shape;
}

void
saveCheckpoint(const BdqLearner &learner, std::ostream &os,
               const std::string &context)
{
    std::ostringstream body(std::ios::binary);
    body.write(kMagic, sizeof(kMagic));
    writePod(body, kVersion);
    const auto shape = bdqShape(learner.onlineNetwork().config());
    writePod(body, static_cast<std::uint32_t>(shape.size()));
    for (std::uint64_t dim : shape)
        writePod(body, dim);
    writePod(body, static_cast<std::uint64_t>(
                       learner.onlineNetwork().paramCount()));
    learner.save(body);
    const std::string bytes = std::move(body).str();
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    writePod(os, common::fnv1a(bytes.data(), bytes.size()));
    common::fatalIf(!os, "write failed for checkpoint: ", context);
}

void
saveCheckpoint(const BdqLearner &learner, const std::string &path)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    common::fatalIf(!os.is_open(),
                    "cannot open checkpoint for writing: ", path);
    saveCheckpoint(learner, os, path);
}

void
loadCheckpoint(BdqLearner &learner, std::istream &is,
               const std::string &context)
{
    HashingReader in(is, context);
    char magic[sizeof(kMagic)];
    in.read(magic, sizeof(magic), "header");
    common::fatalIf(std::memcmp(magic, kMagic, sizeof(magic)) != 0,
                    context, ": not a Twig checkpoint (magic bytes ",
                    hexBytes(magic, sizeof(magic)), ", expected ",
                    hexBytes(kMagic, sizeof(kMagic)), " \"TWIGCKPT\")");
    const auto version = in.pod<std::uint32_t>("header");
    common::fatalIf(version != kVersion, context,
                    ": unsupported checkpoint version ", version,
                    " (expected ", kVersion, ")");

    // Every field is checked against this learner as soon as it is
    // read, so no length taken from the input sizes an allocation.
    const auto expected = bdqShape(learner.onlineNetwork().config());
    const auto shape_len = in.pod<std::uint32_t>("header");
    bool same_shape = shape_len == expected.size();
    for (std::size_t i = 0; same_shape && i < shape_len; ++i)
        same_shape = in.pod<std::uint64_t>("header") == expected[i];
    common::fatalIf(!same_shape, context,
                    ": checkpoint architecture does not match this "
                    "learner (machine shape / service count differ)");
    const std::size_t count = learner.onlineNetwork().paramCount();
    const auto param_floats = in.pod<std::uint64_t>("header");
    common::fatalIf(param_floats != count, context, ": checkpoint holds ",
                    param_floats, " parameters, this learner has ",
                    count);

    std::string params(count * sizeof(float), '\0');
    in.read(params.data(), params.size(), "parameters");
    std::uint64_t stored = 0;
    is.read(reinterpret_cast<char *>(&stored), sizeof(stored));
    common::fatalIf(static_cast<std::size_t>(is.gcount()) !=
                        sizeof(stored),
                    context, ": truncated checkpoint checksum");
    is.peek();
    common::fatalIf(!is.eof(), context,
                    ": trailing bytes after the checkpoint checksum");
    common::fatalIf(stored != in.hash(), context, ": checksum mismatch");

    std::istringstream verified(std::move(params), std::ios::binary);
    learner.load(verified);
}

void
loadCheckpoint(BdqLearner &learner, const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    common::fatalIf(!is.is_open(), "cannot open checkpoint: ", path);
    loadCheckpoint(learner, is, path);
}

} // namespace twig::rl
