// Actions emitted by the protocol state machines.
//
// The FSMs are pure: they never touch the network or storage themselves.
// Each input (message or completion notification) returns a list of actions
// for the hosting runtime to execute.  This keeps Algorithms 1-3 unit-
// testable in isolation and lets the same protocol code (core::Roles, in
// roles.hpp) run on the discrete-event simulator and on real threads.
#pragma once

#include <variant>

#include "core/protocol/messages.hpp"
#include "core/small_vector.hpp"

namespace aio::core {

/// Deliver `msg` to rank `to`.
struct SendAction {
  Rank to = -1;
  Message msg;
};

/// Begin this rank's data write: `bytes` at `offset` of file `file`.
/// The runtime reports completion via Roles::on_write_done().
struct StartWriteAction {
  GroupId file = -1;
  double offset = 0.0;
  double bytes = 0.0;
};

/// SC appends its merged file index ("Write the index", Algorithm 2).
/// Completion is reported via Roles::on_index_write_done().
struct WriteIndexAction {
  GroupId file = -1;
  double offset = 0.0;
  double bytes = 0.0;
};

/// C writes the global master index file (Algorithm 3, last line).
/// Completion is reported via Roles::on_global_index_write_done().
struct WriteGlobalIndexAction {
  double bytes = 0.0;
};

/// The emitting role has finished all of its work.
struct RoleDoneAction {};

using Action =
    std::variant<SendAction, StartWriteAction, WriteIndexAction, WriteGlobalIndexAction,
                 RoleDoneAction>;

/// A typical FSM step emits one or two actions (a send plus maybe a state
/// transition), so four inline slots make steady-state protocol steps
/// allocation-free; the coordinator's final broadcast to every SC overflows
/// to the heap exactly once per run.
using Actions = SmallVector<Action, 4>;

}  // namespace aio::core
