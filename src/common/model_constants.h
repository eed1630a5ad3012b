// The §4 model constants that more than one library reads. The paper fixes
// them for every experiment, so they are constants here, not run settings;
// a constant with a single reader sits next to that reader instead.
#pragma once

namespace wadc {

// Per-message startup cost, charged while both endpoints are held and
// before bytes flow (§4: 50 ms). Read by the network model, the cost
// model's edge costs and the session runtime's response predictor.
inline constexpr double kMessageStartupSeconds = 0.05;

// Mean image size (§4: 128 KB): the workload sampler's mean, the partition
// size the cost model plans for, and the message size of the session
// runtime's response predictor.
inline constexpr double kMeanImageBytes = 128.0 * 1024;

// Disk read rate (§4: 3 MB/s), for the workload's reads and the cost
// model's disk cost.
inline constexpr double kDiskBytesPerSecond = 3.0e6;

// Composition cost (§4: 7 us per pixel, one byte per pixel), for the
// workload's compositions and the cost model's compute cost.
inline constexpr double kComputeSecondsPerByte = 7e-6;

}  // namespace wadc
