(* Host-speed probe. The benchmark launches it and reads what it reports.
   It links nothing from the program, so a change to the program cannot
   move it; only the host's speed does.

   probe LAUNCHED_NS (a CLOCK_MONOTONIC reading taken just before the
   launch) prints one line: nanoseconds from launch to main, and
   nanoseconds spent on a fixed amount of allocation and garbage
   collection. Of the probes tried (integer, float, pointer chasing over
   0.5 to 32 MB, streaming, sparse solves, allocation), this one's time
   followed the LP workload's time most closely as the host's speed
   moved.

   probe echo is the far end of a loopback round trip shaped like a served
   request: it listens on an ephemeral loopback port, prints the port,
   accepts one connection and answers each line with the same line after
   a little allocation, until the client closes. The worker times the
   round trips; they follow the wake-ups and system calls of the serving
   path, which the allocation probe misses. *)

let t_main = Monotonic_clock.now ()

(* 2 MB stays live while the rest is promoted and collected. *)
let keep = Array.make 4096 [||]
let churn = ref 0

let allocate n =
  for _ = 1 to n do
    incr churn;
    keep.(!churn land 4095) <- Array.make 64 (float_of_int !churn)
  done

let echo () =
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 1;
  (match Unix.getsockname lsock with
   | Unix.ADDR_INET (_, port) -> Printf.printf "%d\n%!" port
   | Unix.ADDR_UNIX _ -> exit 2);
  let fd, _ = Unix.accept lsock in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  try
    while true do
      let line = input_line ic in
      allocate 400;
      output_string oc line;
      output_char oc '\n';
      flush oc
    done
  with End_of_file -> ()

let () =
  match Sys.argv with
  | [| _; "echo" |] -> echo ()
  | [| _; launched |] ->
      let launched = Int64.of_string launched in
      let a = Monotonic_clock.now () in
      allocate 150_000;
      let b = Monotonic_clock.now () in
      ignore (Sys.opaque_identity keep);
      Printf.printf "%Ld %Ld\n" (Int64.sub t_main launched) (Int64.sub b a)
  | _ ->
      prerr_endline "usage: probe LAUNCHED_NS | probe echo";
      exit 2
