// Host-speed calibration. A shared host runs the same code faster or slower
// in phases of minutes (other tenants on the sibling hyperthreads, in the
// shared cache and on the memory bus), which moves CPU-time metrics by
// 20-50% between runs of identical code. The benchmark therefore times a
// fixed reference kernel of its own right next to each measured piece of
// work (a set-up, a train() call, a chunk of serving rounds) and divides
// the work's CPU time by how slowly the kernel ran against the reference
// host. A change to the program moves the work,
// not the kernel, so it still shows; a slow phase of the host moves both,
// and cancels.
#pragma once

namespace kgebench {

/// How slowly the host runs the reference kernel right now: its thread CPU
/// time here divided by its time on the reference host (a quiet 4-vCPU
/// Xeon VM). 1.0 there; 1.3 on a host, or in a phase of a shared host,
/// that runs this kind of code 30% slower. The kernel runs on `threads`
/// threads at once (the workload's own thread count, so that they contend
/// with each other as the workload's do), eight times each; the result is
/// the mean, so bursts of contention count as they do in the workload.
/// Takes about 70 ms.
double host_slowness(int threads);

}  // namespace kgebench
