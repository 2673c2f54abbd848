(* Host and process readings from /proc, plus the small statistics the
   driver reports.  Linux only: the benchmark runs where the daemon does. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let now_s () = Int64.to_float (Tf_obs.now_ns ()) /. 1e9

(* CPU time run so far by the live threads of [pid], in ns (schedstat
   resolution, unlike the 10 ms ticks of /proc/<pid>/stat).  Only
   differences over a span in which no thread exits are meaningful. *)
let task_cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match read_file (Printf.sprintf "%s/%s/schedstat" dir tid) with
      | s -> acc +. float_of_string (List.hd (String.split_on_char ' ' s))
      | exception Sys_error _ -> acc)
    0. (Sys.readdir dir)

(* Peak resident set (VmHWM) of [pid], in MB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l) (String.split_on_char '\n' status)
  in
  let kb = Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" Fun.id in
  float_of_int kb /. 1024.

(* Aggregate CPU jiffies from the first line of /proc/stat: (steal, total). *)
let host_jiffies () =
  let stat = read_file "/proc/stat" in
  let first = String.sub stat 0 (String.index stat '\n') in
  let fields =
    List.filter_map int_of_string_opt
      (List.filter (( <> ) "") (String.split_on_char ' ' first))
  in
  (* user nice system idle iowait irq softirq steal [guest guest_nice];
     guest time is already counted in user. *)
  let first8 = List.filteri (fun i _ -> i < 8) fields in
  (List.nth first8 7, List.fold_left ( + ) 0 first8)

let steal_share (s0, t0) (s1, t1) =
  if t1 = t0 then 0. else float_of_int (s1 - s0) /. float_of_int (t1 - t0)

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- statistics ------------------------------------------------------ *)

(* Nearest-rank percentile of an already sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = percentile (sorted_of_list l) 50.
