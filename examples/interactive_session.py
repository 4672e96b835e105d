#!/usr/bin/env python
"""Interactive sessions — the paper's §VIII future work, working.

A student opens a live container on a worker and iterates: build, run,
inspect the profile, tweak, re-run — with state persisting between
commands, which batch submissions cannot offer.  The sandbox contract
(whitelisted image, no network, read-only /src, lifetime caps) still
holds.

Run:  python examples/interactive_session.py
"""

from repro.core.config import WorkerConfig
from repro.core.interactive import InteractiveSession
from repro.core.system import RaiSystem


def main() -> None:
    system = RaiSystem(seed=8)
    system.add_worker(WorkerConfig(enable_interactive=True))

    client = system.new_client(
        team="debuggers",
        on_line=lambda stream, text: print(text, end=""),
    )
    client.stage_project({
        "main.cu": "// @rai-sim quality=0.7 impl=analytic\n"
                   "#define TILE_WIDTH 16\n",
        "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
    })

    session = InteractiveSession(client)

    def student(sim):
        print("=== requesting an interactive session ===")
        transcript = yield from session.start()
        print(f"attached to {transcript.worker_id}\n")

        for command in [
            "nvidia-smi",
            "cmake /src && make",
            "./ece408 /data/test10.hdf5 /data/model.hdf5",
            "nvprof --export-profile timeline.nvprof "
            "./ece408 /data/test10.hdf5 /data/model.hdf5",
            "ls -l",                      # state persisted: ece408, profile
            "wc -l timeline.nvprof",
        ]:
            print(f"\n$ {command}")
            outcome = yield from session.run(command)
            print(f"[exit {outcome.exit_code}, "
                  f"{outcome.duration:.2f}s simulated]")

        print("\n$ curl http://example.com  (sandbox check)")
        denied = yield from session.run("curl http://example.com")
        print(f"[exit {denied.exit_code} — network stays off, even "
              "interactively]")

        transcript = yield from session.close()
        return transcript

    transcript = system.run(student(system.sim))
    print(f"\nsession ended: {transcript.end_reason}; "
          f"{len(transcript.outcomes)} commands, recorded in the DB as "
          f"{session.session_id}")
    row = system.db.collection("interactive_sessions").find_one(
        {"session_id": session.session_id})
    print(f"database transcript rows: {len(row['commands'])}")


if __name__ == "__main__":
    main()
