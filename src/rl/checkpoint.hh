/**
 * @file
 * The BDQ checkpoint: the one on-disk and in-memory encoding of a
 * trained BDQ learner's parameters.
 *
 * The in-memory save()/load() methods stream raw little-endian floats
 * with no framing, which is fine between two identically-constructed
 * objects in one process but unsafe anywhere else: loading bytes
 * produced by a different architecture silently scrambles every
 * layer, and a flipped byte silently changes the policy. A checkpoint
 * adds an architecture fingerprint and a checksum:
 *
 *   "TWIGCKPT"            8-byte magic
 *   u32 version           2
 *   u32 shapeLen          architecture fingerprint length
 *   u64 shape[shapeLen]   agents, state width, hidden sizes, branches
 *   u64 paramFloats       number of float32 parameters that follow
 *   f32 params[...]       online-network parameters (save() order)
 *   u64 checksum          FNV-1a 64 (common/hash.hh) of every byte
 *                         before it
 *
 * Loading validates every field against the destination learner and
 * verifies the checksum before installing any parameter, so a
 * mismatched, truncated, extended or corrupted checkpoint raises
 * FatalError and leaves the learner as it was. Version 1 files (no
 * checksum) are rejected as an unsupported version.
 *
 * The same bytes serve every use: `twig --save-checkpoint` /
 * `--checkpoint` warm starts, the cluster's in-memory failover frames
 * and the serve daemon's shutdown file.
 */

#ifndef TWIG_RL_CHECKPOINT_HH
#define TWIG_RL_CHECKPOINT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "nn/bdq.hh"
#include "rl/bdq_learner.hh"

namespace twig::rl {

/** Architecture fingerprint of a BDQ network. */
std::vector<std::uint64_t> bdqShape(const nn::BdqConfig &cfg);

/** Snapshot @p learner's online-network weights to @p path. */
void saveCheckpoint(const BdqLearner &learner, const std::string &path);

/** As the file variant, writing the checkpoint to @p os — the cluster
 * failover path keeps its frames in memory this way. @p context
 * prefixes error messages. */
void saveCheckpoint(const BdqLearner &learner, std::ostream &os,
                    const std::string &context);

/**
 * Restore weights from @p path into @p learner (online and target
 * networks). Any mismatch, truncation, trailing byte or checksum
 * failure raises FatalError and leaves the learner untouched.
 */
void loadCheckpoint(BdqLearner &learner, const std::string &path);

/** As the file variant, reading from @p is, which must hold the
 * checkpoint and nothing else. @p context prefixes errors. */
void loadCheckpoint(BdqLearner &learner, std::istream &is,
                    const std::string &context);

} // namespace twig::rl

#endif // TWIG_RL_CHECKPOINT_HH
