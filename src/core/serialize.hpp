// Dataset and model (de)serialization. Profiling and training are the
// expensive steps of the pipeline (on real hardware: hours of kernel
// measurements, then model fitting), so StencilMART persists both:
//
// Profiled corpora use a plain-text sectioned format that is stable across
// runs and diff-friendly:
//
//   [header]   dims max_order num_stencils samples_per_oc seed noise_sigma
//   [shard]    shard_idx shard_count retries fault_spec|-   (shards only)
//   [stencil]  dims nx ny nz boundary offsets(x:y:z;...)
//   [settings] stencil_idx oc_idx block_x block_y ... tb_depth
//   [times]    stencil_idx gpu_idx oc_idx setting_idx time_ms|crash
//
// Trained models use a versioned, checksummed artifact (the train-once /
// serve-many path):
//
//   stencilmart-model-v1          <- magic + format version
//   payload <byte count>
//   <payload bytes>               <- config / merger / classifiers /
//                                    regression sections, hexfloat weights
//   checksum <16-hex FNV-1a 64>   <- digest of the payload bytes
//
// The envelope makes the failure modes distinguishable: a wrong magic, an
// unsupported version, a truncated payload, and a corrupted payload each
// raise a distinct std::runtime_error. Weights are written as hexfloat
// tokens, so a loaded model predicts bit-identically to the saved one.
//
// Both formats are written into one std::string (util::TokenWriter) and
// parsed in place from the whole file's bytes (util::TokenReader); the
// istream/ostream overloads below only move those bytes.
#pragma once

#include <iosfwd>
#include <string>

#include "core/mart.hpp"
#include "core/profile_dataset.hpp"

namespace smart::core {

/// Writes `dataset` to the stream / file. Throws std::runtime_error on I/O
/// failure. The path overload writes atomically (util/atomic_file): a
/// failed or interrupted save leaves the destination untouched.
void save_dataset(const ProfileDataset& dataset, std::ostream& out);
void save_dataset(const ProfileDataset& dataset, const std::string& path);

/// Reads a dataset back. Throws std::runtime_error on parse errors with
/// "<source>:<line>: ..." context (e.g. "corpus.txt:1042: unparsable time
/// field '1.2.3'"); the result is bit-identical to the saved dataset
/// (validated by tests). `source` names the stream in error messages.
ProfileDataset load_dataset(std::istream& in,
                            const std::string& source = "<stream>");
ProfileDataset load_dataset(const std::string& path);

/// Writes a trained StencilMart (config, OC merger, per-GPU classifiers,
/// fitted regressor) as a versioned model artifact. Throws std::logic_error
/// before train() and std::runtime_error on I/O failure. Records the
/// "serialize.save" timing phase. The path overload writes atomically.
void save_model(const StencilMart& mart, std::ostream& out);
void save_model(const StencilMart& mart, const std::string& path);

/// Reads a model artifact back into a ready-to-serve StencilMart:
/// advise_batch() works immediately, predicts bit-identically to the saved
/// instance, and needs no profiling corpus (the loaded mart carries a
/// zero-stencil serving dataset). Throws std::runtime_error with a distinct
/// message for bad magic, unsupported version, truncation, checksum
/// mismatch, and malformed payload — including a tree that splits on a
/// feature past the end of the row it reads; payload parse errors carry
/// "<source>: payload byte offset N: ..." context. Records
/// "serialize.load".
StencilMart load_model(std::istream& in,
                       const std::string& source = "<stream>");
StencilMart load_model(const std::string& path);

/// Envelope metadata of a model artifact, read without parsing the payload.
/// The serve daemon's startup banner and `healthz` reply report these so
/// operators can confirm which artifact is live after a hot reload.
struct ModelArtifactInfo {
  std::string version;   // magic line, e.g. "stencilmart-model-v1"
  std::string checksum;  // 16-hex FNV-1a 64 digest of the payload bytes
};

/// Reads and validates the artifact envelope (magic, payload byte count,
/// checksum) and returns its metadata. Throws the same distinct
/// std::runtime_error diagnostics as load_model for bad magic, unsupported
/// version, truncation, and checksum mismatch.
ModelArtifactInfo inspect_model(std::istream& in);
ModelArtifactInfo inspect_model(const std::string& path);

/// A loaded model together with the envelope it was read from.
struct LoadedModel {
  StencilMart mart;
  ModelArtifactInfo info;
};

/// load_model and inspect_model in one pass: the artifact file is read and
/// checksummed once. The serve daemon loads (and reloads) through this.
LoadedModel load_model_artifact(const std::string& path);

}  // namespace smart::core
