(* Thin client for the [transfusion serve] daemon: sends
   newline-delimited JSON requests (from arguments or stdin) over the
   daemon's Unix or TCP socket and prints each response line.

   With --check, exits 1 if any response carries ok:false — the CI
   smoke job's assertion mode.  Without it, error responses are data
   like any other (fuzzing scripts want to see them, not die). *)

open Cmdliner

let connect ~socket ~tcp =
  let addr =
    match (socket, tcp) with
    | _, Some port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
    | Some path, None -> Unix.ADDR_UNIX path
    | None, None -> failwith "either --socket or --tcp is required"
  in
  let domain = Unix.domain_of_sockaddr addr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let run socket tcp check timeout requests =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ic, oc = connect ~socket ~tcp in
  (* A wedged daemon must not wedge the client (or the CI job driving
     it): bound the wait for each response. *)
  Unix.setsockopt_float (Unix.descr_of_in_channel ic) Unix.SO_RCVTIMEO timeout;
  let requests =
    match requests with
    | [] -> In_channel.input_lines In_channel.stdin
    | rs -> rs
  in
  let failed = ref false in
  List.iter
    (fun request ->
      if String.trim request <> "" then begin
        output_string oc request;
        output_char oc '\n';
        flush oc;
        match In_channel.input_line ic with
        | None ->
            prerr_endline "connection closed by server";
            failed := true
        | Some response ->
            print_endline response;
            if check then begin
              match Tf_json.(find "ok" (parse response)) with
              | Some (Tf_json.Bool true) -> ()
              | _ -> failed := true
            end
      end)
    requests;
  (try close_out oc with Sys_error _ -> ());
  if !failed then exit 1

let () =
  let socket_arg =
    Arg.(
      value
      & opt (some string) (Some "transfusion.sock")
      & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon's Unix-domain socket path.")
  in
  let tcp_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT" ~doc:"Connect to loopback TCP port $(docv) instead.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ] ~doc:"Exit 1 if any response has ok:false (or the connection drops).")
  in
  let timeout_arg =
    Arg.(
      value & opt float 300.
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-response receive timeout.")
  in
  let requests_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:"Request lines (JSON objects).  With none, requests are read from stdin.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "transfusion-client" ~version:"1.0.0"
         ~doc:"Send requests to a transfusion serve daemon and print the responses")
      Term.(const run $ socket_arg $ tcp_arg $ check_arg $ timeout_arg $ requests_arg)
  in
  exit (Cmd.eval cmd)
