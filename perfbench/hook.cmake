# Injected into the repository's top-level project() call by run.py
# (-DCMAKE_PROJECT_INCLUDE=<checkout>/perfbench/hook.cmake), so the benchmark
# builds against the repository's own library targets, compiled with the
# repository's own CMake rules. Target names resolve at generate time, so
# the gaip_* libraries may be defined after this point.
add_subdirectory("${CMAKE_CURRENT_LIST_DIR}" "${CMAKE_BINARY_DIR}/perfbench")
