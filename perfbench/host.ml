(* Resource accounting from /proc, read where the work happens: the
   benchmark process for in-process workloads, the server's pid for the
   served one. *)

let read_file path =
  match open_in path with
  | ic ->
      let buf = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel buf ic 1
         done
       with End_of_file -> ());
      close_in ic;
      Some (Buffer.contents buf)
  | exception Sys_error _ -> None

let words s =
  String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) s)
  |> List.filter (( <> ) "")

(* "Name:   value kB" lines of /proc/PID/status. *)
let status_field text name =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = name -> (
             match words (String.sub line (i + 1) (String.length line - i - 1)) with
             | v :: _ -> int_of_string_opt v
             | [] -> None)
         | _ -> None)

let status pid name =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | Some t -> Option.value (status_field t name) ~default:0
  | None -> 0

(* Peak resident set in MB (VmHWM). *)
let peak_rss_mb pid = float_of_int (status pid "VmHWM") /. 1024.0
let rss_mb pid = float_of_int (status pid "VmRSS") /. 1024.0
let threads pid = status pid "Threads"

let clk_tck = 100.0

(* user+sys CPU seconds of every thread of [pid] (fields 14 and 15 of
   /proc/PID/stat, counted after the parenthesised command name). *)
let cpu_s pid =
  match read_file (Printf.sprintf "/proc/%s/stat" pid) with
  | None -> 0.0
  | Some t -> (
      let rest =
        let i = String.rindex t ')' in
        String.sub t (i + 2) (String.length t - i - 2)
      in
      match words rest with
      | fields when List.length fields > 13 ->
          (float_of_string (List.nth fields 11)
          +. float_of_string (List.nth fields 12))
          /. clk_tck
      | _ -> 0.0)

(* The calling process's own CPU, at microsecond resolution. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Context switches summed over every thread: /proc/PID/status covers
   only the leader thread. *)
let ctx_switches pid =
  let dir = Printf.sprintf "/proc/%s/task" pid in
  match Sys.readdir dir with
  | tids ->
      Array.fold_left
        (fun acc tid ->
          match read_file (Printf.sprintf "%s/%s/status" dir tid) with
          | Some t ->
              acc
              + Option.value (status_field t "voluntary_ctxt_switches") ~default:0
              + Option.value
                  (status_field t "nonvoluntary_ctxt_switches")
                  ~default:0
          | None -> acc)
        0 tids
  | exception Sys_error _ -> 0

(* Aggregate CPU time counters of /proc/stat: (steal, total) jiffies. *)
let cpu_jiffies () =
  match read_file "/proc/stat" with
  | None -> (0, 0)
  | Some t -> (
      match String.split_on_char '\n' t with
      | line :: _ -> (
          match words line with
          | "cpu" :: fields ->
              let v = List.map (fun f -> Option.value (int_of_string_opt f) ~default:0) fields in
              (* guest time is already counted inside user/nice *)
              let v = List.filteri (fun i _ -> i < 8) v in
              ((match List.nth_opt v 7 with Some s -> s | None -> 0), List.fold_left ( + ) 0 v)
          | _ -> (0, 0))
      | [] -> (0, 0))

(* Run [f] in a forked child and return its result. Work whose memory
   must not count toward this process's peak RSS (discarded set-ups,
   other variants' stores) runs here. The caller must be single-domain. *)
let in_child f =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let code =
        match f () with
        | v ->
            let oc = Unix.out_channel_of_descr wr in
            Marshal.to_channel oc v [];
            close_out oc;
            0
        | exception e ->
            prerr_endline ("perfbench child: " ^ Printexc.to_string e);
            1
      in
      Unix._exit code
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let v = try Some (Marshal.from_channel ic) with End_of_file -> None in
      close_in ic;
      let rec wait () =
        try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      (match (wait (), v) with
      | Unix.WEXITED 0, Some v -> v
      | _ -> failwith "perfbench: child process failed")

(* Host-speed probe: fixed work, timed in ns. One million rounds of
   integer mixing (ALU) and 100,000 dependent loads over a 16 MiB array
   (cache and memory latency). On a shared VM the vCPU's speed drifts by
   tens of percent over minutes; this probe tracks that drift, and the
   wall-clock metrics are scaled by it (see perfbench/README.md). *)
let probe_walk =
  lazy
    (let n = 1 lsl 21 in
     Array.init n (fun i -> (i * 1_000_003 + 1) land (n - 1)))

let probe () =
  let a = Lazy.force probe_walk in
  let t0 = Clock.now () in
  let h = ref 1L in
  for _ = 1 to 1_000_000 do
    h := Util.Scramble.fmix64 !h
  done;
  let p = ref (Int64.to_int !h land 1) in
  for _ = 1 to 100_000 do
    p := Array.unsafe_get a !p
  done;
  ignore (Sys.opaque_identity !p);
  Clock.now () - t0
