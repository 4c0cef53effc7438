#include <stdio.h>

int d = 3;

int main(void) {
    int a = 4;
    int b = 1;
    if (b) {
        b = 1;
    }
    printf("%d", a);
    b = d * b;
    return b;
}
